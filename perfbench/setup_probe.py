"""One set-up in a fresh interpreter: import the package, load a corpus.

Usage: python3 setup_probe.py <src dir> <manifest.json>
run.py times this script's whole process, several times per run.
"""

import json
import sys


def main() -> None:
    src, manifest = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    import quartic_galois.cli  # noqa: F401  (the import is what is timed)
    from quartic_galois.linalg import parse_matrix
    from quartic_galois.poly import parse_point, parse_poly

    readers = {"surface": lambda t: parse_poly(t, 4), "matrix": parse_matrix,
               "point": parse_point}
    with open(manifest, encoding="utf-8") as fh:
        files = json.load(fh)["files"]
    for kind, path in files:
        with open(path, encoding="utf-8") as fh:
            readers[kind](fh.read().strip())


if __name__ == "__main__":
    main()
