"""Check JSON artifacts: python check_json_artifacts.py DIR...

Exits 1 unless the DIRs hold at least one .json file, searched recursively,
and every one of them equals, byte for byte, the stdlib's sorted, indent-2
encoding of its own content with a final line break.
"""
import json
import pathlib
import sys

paths = sorted(p for d in sys.argv[1:] for p in pathlib.Path(d).rglob("*.json"))
bad = [str(p) for p in paths
       if p.read_bytes() != (json.dumps(json.loads(p.read_bytes()), sort_keys=True, indent=2) + "\n").encode()]
print(f"{len(paths)} JSON artifacts, {len(bad)} differ from the stdlib encoding: {bad}")
sys.exit(1 if bad or not paths else 0)
