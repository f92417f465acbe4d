"""Compare the command-line output of the working tree with that of a git revision.

    python tools/output_diff.py REV

Extracts REV with `git archive` into a temporary directory, runs each command below in that copy and in the
working tree (with PYTHONPATH=src and COLUMNS=80), and compares stdout, stderr and the exit code.  Prints
`same` or `DIFF` for each command and exits 1 if any command differs.  Standard library only.
"""

import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CLI = [
    *(["report", f"--lambda={lam}", "--trunc=64"] for lam in ("-3", "-1", "0.8963", "2", "10", "50")),
    ["report", "--trunc=8"],
    ["report", "--lambda=2", "--trunc=512"],
    *(["pdo", f"--w={k / 4!r}"] for k in range(1, 21)),
    ["spectrum", "--trunc=256"],
    ["spectrum", "--trunc=24", "--format=csv"],
    *(["commutator", "--weights=geometric", "--q=1.1", f"--trunc={n}"] for n in (128, 512)),
    ["commutator", "--lambda=-3", "--weights=geometric", "--q=1.1", "--trunc=128"],
    ["coherent"],
    ["order", "--weights=linear"],
    ["report", "--lambda=0.5"],
    ["report", "--trunc=4"],
    ["pdo", "--w=0"],
    ["commutator", "--weights=constant", "--w=1e12", "--trunc=16"],
    ["coherent", "--weights=geometric", "--q=1e30"],
    ["order", "--weights=linear", "--nu=-0.9"],
]
DEMOS = ["01_isospectral_family.py", "02_distorted_ladders.py", "03_pdo_expansions.py", "04_coherent_states.py"]
COMMANDS = [["-m", "isoladder", *args] for args in CLI] + [[f"demos/{demo}"] for demo in DEMOS]


def run(tree: Path, args: list) -> tuple:
    env = dict(os.environ, PYTHONPATH="src", COLUMNS="80")
    done = subprocess.run([sys.executable, *args], cwd=tree, env=env, capture_output=True)
    return done.stdout, done.stderr, done.returncode


def main(rev: str) -> int:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True, check=True).stdout
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        for args in COMMANDS:
            same = run(Path(tmp), args) == run(ROOT, args)
            differ += not same
            print(f"{'same' if same else 'DIFF'}  {' '.join(args)}", flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
