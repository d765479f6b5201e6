"""The repository's measured benchmark (see ``perfbench/README.md``).

Run one workload from the repository root::

    python3 perfbench/run.py --workload serve-small --seed 1 --seconds 32 --trace 0
"""
