"""SL007 — no dropped task handles, no unawaited coroutines.

The cluster substrate (:mod:`repro.cluster`) hangs the paper's
exactness guarantee off coroutines: its start-up and its bottom-up
shutdown drain are ``async def`` chains the orchestrator awaits.  Two
classic asyncio bugs silently void that kind of code:

* ``asyncio.create_task(...)`` / ``asyncio.ensure_future(...)`` whose
  result is discarded — the event loop holds only a weak reference to
  tasks, so a dropped handle can be garbage-collected mid-flight and
  its exceptions are never observed;
* calling an ``async def`` without ``await`` as a bare statement — the
  coroutine object is created, never scheduled, and the work it was
  supposed to perform simply does not happen (``ClusterNode.stop``
  dropping the ``await`` on ``self.close_uplink()`` would leave the
  uplink open and its last ACKs unread).

The rule flags expression statements that discard a task-factory result
or a coroutine created from an ``async def`` defined in the same module
(module-level functions and ``self.``-methods of the enclosing class).
Storing the handle, awaiting it, or passing the coroutine into
``gather``/``wait``/``run`` consumes it and is fine.
"""

from __future__ import annotations

import ast

from repro.analysis.core import LintContext, Rule, Severity, register_rule

__all__ = ["AsyncioTaskRule"]

#: Call targets that return a task whose handle must be kept.
_TASK_FACTORIES = frozenset({"create_task", "ensure_future"})


@register_rule
class AsyncioTaskRule(Rule):
    rule_id = "SL007"
    severity = Severity.ERROR
    description = (
        "create_task/ensure_future result dropped, or a local async def "
        "called without await — the task can vanish or never run"
    )
    interests = (ast.Expr,)

    def __init__(self) -> None:
        #: module-level async function names.
        self._async_functions: frozenset[str] = frozenset()
        #: class name → its async method names.
        self._async_methods: dict[str, frozenset[str]] = {}

    def begin_module(self, ctx: LintContext) -> bool:
        functions = set()
        methods: dict[str, set[str]] = {}
        for node in ctx.tree.body:
            if isinstance(node, ast.AsyncFunctionDef):
                functions.add(node.name)
            elif isinstance(node, ast.ClassDef):
                methods[node.name] = {
                    item.name
                    for item in node.body
                    if isinstance(item, ast.AsyncFunctionDef)
                }
        self._async_functions = frozenset(functions)
        self._async_methods = {name: frozenset(m) for name, m in methods.items()}
        return True

    def check(self, node: ast.AST, ctx: LintContext) -> None:
        if not isinstance(node, ast.Expr) or not isinstance(node.value, ast.Call):
            return
        call = node.value
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in _TASK_FACTORIES:
            ctx.report(
                self,
                node,
                f"result of {func.attr}() is dropped; the event loop keeps "
                "only a weak reference — store the handle and await or "
                "cancel it",
            )
            return
        coroutine = self._unawaited_local_coroutine(call, ctx)
        if coroutine is not None:
            ctx.report(
                self,
                node,
                f"async def {coroutine}() called without await: the coroutine "
                "is created but never scheduled, so its work never happens",
            )

    def _unawaited_local_coroutine(self, call: ast.Call, ctx: LintContext) -> str | None:
        func = call.func
        if isinstance(func, ast.Name) and func.id in self._async_functions:
            return func.id
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
        ):
            for ancestor in ctx.ancestors(call):
                if isinstance(ancestor, ast.ClassDef):
                    if func.attr in self._async_methods.get(ancestor.name, frozenset()):
                        return f"self.{func.attr}"
                    return None
        return None
