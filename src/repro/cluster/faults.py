from repro.runtime.transport import parcel_fate as parcel_fate  # noqa: F401 — for perfbench/oracle.py
