"""The repository's benchmark: seeded serving workloads on both clocks.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` serves one workload, checks every output and prints the
metrics named in ``BENCHMARK.json`` as the last line of its output.
"""
