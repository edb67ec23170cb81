"""Trace the qwire layers of every Python process that starts with this
directory on PYTHONPATH and PERFBENCH_TRACE_DIR set (run.py --trace 1 on
the cli-sweep workload).  Python imports sitecustomize at start-up, so the
qwire CLI and the workers of its process pool are traced from outside,
whichever start method the pool uses."""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import importlib.util
    import pathlib
    import sys

    _path = pathlib.Path(__file__).resolve().parent.parent / "tracing.py"
    _spec = importlib.util.spec_from_file_location("perfbench_tracing", _path)
    _tracing = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = _tracing
    _spec.loader.exec_module(_tracing)
    _tracing.trace_process(os.environ["PERFBENCH_TRACE_DIR"])
