"""Spawn-to-exit seconds and peak RSS of every default run, on two checkouts.

    python3 scripts/cold_runs.py BASE CHANGE [--runs 5] [--only NAME ...]

BASE and CHANGE are the roots of two checkouts (each with a ``src``
directory). For each, the script times ``import lorentz_synth.cli`` alone,
``suite --quick``, and every other subcommand's default run, plain and with
``--quick`` (seed 0), the names ``scripts/payload_digest.py`` uses: each in a
fresh interpreter, from spawn to exit, ``--runs`` times. The two checkouts
alternate run by run, in turn going first, so that drift of the host's speed
hits both alike. One untimed import per checkout first writes its bytecode
caches. The environment is the caller's apart from ``PYTHONPATH`` and
``PYTHONDONTWRITEBYTECODE``, which is dropped: with it, that import would
write nothing and every timed run would compile the package again. Outputs go
to a temporary directory.

Prints a Markdown table: per run name, the median seconds of each side, their
ratio, the median peak resident set size of each side (``ru_maxrss`` of the
child, as ``os.wait4`` reports it, in MB of 2**20 bytes), and the exit status
of each side (a run whose status differs between runs prints all of them).
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from payload_digest import runs as default_runs


def timed(root: Path, cli: list | None, out: Path) -> tuple:
    """(seconds from spawn to exit, peak RSS in MB, exit status) of one fresh
    interpreter that runs the command line ``cli`` into ``out``, or only
    imports the package when ``cli`` is None."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    argv = (["-c", "import lorentz_synth.cli"] if cli is None else
            ["-m", "lorentz_synth.cli", *cli, "--seed", "0", "--out", str(out)])
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], env=env, cwd=out.parent,
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)    # reaped here, not by Popen
    shutil.rmtree(out, ignore_errors=True)
    return wall, usage.ru_maxrss / 1024, proc.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="root of the first checkout")
    parser.add_argument("change", type=Path, help="root of the second checkout")
    parser.add_argument("--runs", type=int, default=5, help="timed runs per side")
    parser.add_argument("--only", nargs="+", metavar="NAME",
                        help="time only these runs (e.g. import tcd tcd-quick)")
    args = parser.parse_args(argv)
    roots = {"base": args.base.resolve(), "change": args.change.resolve()}
    for root in roots.values():
        if not (root / "src" / "lorentz_synth" / "cli.py").is_file():
            parser.error(f"no src/lorentz_synth/cli.py under {root}")
    plan = [("import", None), *default_runs()]
    if args.only:
        unknown = set(args.only) - {name for name, _ in plan}
        if unknown:
            parser.error(f"unknown run names: {sorted(unknown)}")
        plan = [(name, cli) for name, cli in plan if name in args.only]

    seconds = {(side, name): [] for side in roots for name, _ in plan}
    rss = {(side, name): [] for side in roots for name, _ in plan}
    codes = {(side, name): [] for side in roots for name, _ in plan}
    with tempfile.TemporaryDirectory() as tmp:
        for side, root in roots.items():
            timed(root, None, Path(tmp) / "warm-up")
        for k in range(args.runs):
            order = list(roots) if k % 2 == 0 else list(roots)[::-1]
            for name, cli in plan:
                for side in order:
                    out = Path(tmp) / f"{side}-{name}-{k}"
                    wall, peak, code = timed(roots[side], cli, out)
                    seconds[side, name].append(wall)
                    rss[side, name].append(peak)
                    codes[side, name].append(code)
            print(f"round {k + 1} of {args.runs} done", file=sys.stderr, flush=True)

    def status(side, name):
        got = sorted(set(codes[side, name]))
        return ",".join(map(str, got))

    print("| run | base s | change s | change/base | base MB | change MB "
          "| exit base | exit change |")
    print("|---|---:|---:|---:|---:|---:|---:|---:|")
    for name, _ in plan:
        base = statistics.median(seconds["base", name])
        change = statistics.median(seconds["change", name])
        print(f"| {name} | {base:.2f} | {change:.2f} | {change / base:.2f} "
              f"| {statistics.median(rss['base', name]):.1f} "
              f"| {statistics.median(rss['change', name]):.1f} "
              f"| {status('base', name)} | {status('change', name)} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
