"""Library op of the benchmark: what the CLI does not expose.

    python3 perfbench/libop.py translation-maps 2,1,1,1

builds the complex through the public API, certifies the translation maps
with ``verify_translation_maps`` and prints the counts it returns as JSON.
"""

import json
import sys

from snapcomplex import RoundCounter, build, verify_translation_maps


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] != "translation-maps":
        print("usage: libop.py translation-maps COUNTER", file=sys.stderr)
        return 2
    counts = verify_translation_maps(build(RoundCounter.parse(argv[1])))
    print(json.dumps(counts, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
