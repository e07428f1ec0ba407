#!/usr/bin/env python3
"""Builds and runs the repository benchmark (README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record

Run it from the repository root. It configures perfbench/ as a Release CMake
build under .bench_build/perfbench ($CARGO_TARGET_DIR replaces .bench_build
when set), builds the perfbench binary, and runs it with every other
argument. Its last stdout line is the JSON result; build output goes to
stderr. Exits non-zero, printing no result, when the build or the run fails.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Whole passes of the slowest workload finish well inside this.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no nestsim sources under {ROOT / 'src'}")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr.fileno(), cwd=ROOT, env=env).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return out / "perfbench"


def source_digest():
    """SHA-256 over the simulator, scenario and benchmark sources: the code
    identity of a result when the checkout has no git metadata."""
    digest = hashlib.sha256()
    for top in ("src", "scenarios", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "none"
    result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "none"


def main(argv):
    binary = build()
    args = [str(binary), *argv, "--root", str(ROOT)]
    if "--record" not in argv and "--self-test" not in argv:
        args += ["--commit", commit(), "--source-digest", source_digest()]
        name = "-".join(argv[argv.index(flag) + 1] for flag in ("--workload", "--seed")
                        if flag in argv[:-1])
        args += ["--spans", str(build_dir() / "spans" / f"{name}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
