"""roundbench: every round path, end to end and layer by layer.

See ``README.md`` in this directory.  Run from the repository root::

    PYTHONPATH=src python -m benchmarks.roundbench [--seed S] [--workload W]
        [--seconds N] [--trace] [--smoke] [--out F]
"""
