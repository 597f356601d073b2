#!/usr/bin/env python3
"""Every metric closer_bench can print is declared in BENCHMARK.json, with
the same unit and in the section of the mode that prints it, and every
declared metric is printed.

    python3 perfbench/tests/test_metric_names.py BINARY BENCHMARK_JSON
"""

import json
import subprocess
import sys


def main(binary, spec_path):
    printed = json.loads(subprocess.run(
        [binary, "--list-metrics"], capture_output=True, text=True,
        check=True).stdout)
    with open(spec_path) as f:
        spec = json.load(f)
    failures = []
    for section in ("end_to_end", "per_layer"):
        got = {m["name"]: m["unit"] for m in printed[section]}
        want = {m["name"]: m["unit"] for m in spec[section]}
        for name in sorted(set(got) - set(want)):
            failures.append("%s: printed but not in BENCHMARK.json: %s"
                            % (section, name))
        for name in sorted(set(want) - set(got)):
            failures.append("%s: in BENCHMARK.json but never printed: %s"
                            % (section, name))
        for name in sorted(set(got) & set(want)):
            if got[name] != want[name]:
                failures.append("%s: %s unit %s != %s" % (
                    section, name, got[name], want[name]))
    for failure in failures:
        print(failure)
    print("%d metric names checked, %d failures" % (
        len(printed["end_to_end"]) + len(printed["per_layer"]),
        len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
