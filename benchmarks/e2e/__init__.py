"""Wall-clock recovery-cycle benchmark: end to end and per layer.

One unit of work is a whole *recovery cycle* through the public cluster
API on real arrays — checkpoints on ``t1`` tasks, a node failure, a
restart on ``t2`` — timed from outside (``--pass e2e``) and, in a
separate pass, with every layer's public entry points wrapped from this
package (``--pass traced``).  See ``README.md`` beside this file for the
cycle, stamp, metric and workload definitions.

Run ``PYTHONPATH=src python -m benchmarks.e2e --help``; the benchmark
driver runs ``python3 benchmarks/e2e/run.py`` (same CLI, paths set up by
the script itself).
"""
