#!/usr/bin/env python3
"""Build and run the wall-clock benchmark of the Fig. 1 loop.

Run from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py compare <parent-dir> <change-dir>

The first form builds the `perfbench` package (release, offline) and runs
one workload; the last line of standard output is the result as one JSON
object. The second form compares saved outputs of two commits; see
compare.py. The build goes to $CARGO_TARGET_DIR, or perfbench/target.
Temporary files (checkpoints, spill files) go under the build directory
and are removed when the run ends.
"""

import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def source_digest():
    """SHA-256 over the sources the benchmark builds from: a revision
    stamp that also works in a checkout that is not a git repository."""
    h = hashlib.sha256()
    files = sorted(
        p
        for base in (ROOT / "crates", ROOT / "vendor", HERE / "src")
        if base.is_dir()
        for p in base.rglob("*")
        if p.is_file() and (p.suffix == ".rs" or p.name == "Cargo.toml")
    )
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def command_output(cmd):
    # Keep git from searching above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main(argv):
    if argv[:1] == ["compare"]:
        sys.dont_write_bytecode = True
        sys.path.insert(0, str(HERE))
        import compare

        return compare.main(argv[1:])
    if not (ROOT / "crates" / "dedup" / "Cargo.toml").is_file():
        print(
            "perfbench: the library crates are not next to perfbench/; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    target = pathlib.Path(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", HERE / "target")))
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    provenance = {
        "git_rev": command_output(["git", "rev-parse", "HEAD"]),
        "source_digest": source_digest(),
        "rustc": command_output(["rustc", "--version"]),
    }
    print("provenance-build " + json.dumps(provenance, sort_keys=True), flush=True)
    tmp = target / "perfbench-tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    try:
        run = subprocess.run(
            [str(target / "release" / "perfbench"), *argv,
             "--trace-dir", str(target / "perfbench-traces")],
            env=env,
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
