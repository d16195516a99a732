"""Check a benchmark log: python check_bench_log.py EXPECTED LOG.

Exits 1 unless LOG holds exactly EXPECTED result lines (the lines that
start with '{"correct"') and every one of them has "correct" set to true.
"""
import json
import sys

expected, log = int(sys.argv[1]), sys.argv[2]
with open(log) as f:
    results = [json.loads(line) for line in f if line.startswith('{"correct"')]
print(f"{len(results)} result lines (expected {expected}), correct: {[r['correct'] for r in results]}")
sys.exit(0 if len(results) == expected and all(r["correct"] is True for r in results) else 1)
