#!/usr/bin/env python3
"""Build and run drfopt's benchmark.

Run from the root of a source tree of the repository:

    python3 perfbench/run.py --workload litmus-models --seed 1 \
        --seconds 45 --trace 0

Builds perfbench/bench.exe from source with dune (the shared dune cache
is disabled, so the build writes only under _build/), then runs it with
the same arguments.  The benchmark prints a detail line with the host
fingerprint and, as the last line of standard output, the result object.
Exits non-zero when the build fails, when any verdict is wrong, or when
the run overruns its time limit.  Traced runs (--trace 1) write their
spans to perfbench/out/<workload>-<seed>.jsonl, which
`drfopt report --profile` and `--flamegraph` render.
"""

import hashlib
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
RUN_LIMIT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def source_id():
    """The commit when the tree is a git checkout, else a digest of the
    program's sources, so results of unlike code are never confused."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha1()
    for top in ("lib", "bin"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of the repository (dune-project and lib/ not found)")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run([dune, "build", "--root", ".", "./perfbench/bench.exe"],
                           env=env, capture_output=True, text=True)
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        fail("build failed")
    args = [EXE] + sys.argv[1:] + ["--commit", source_id()]
    proc = subprocess.Popen(args)
    try:
        code = proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_LIMIT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
