"""Build and run the wfe benchmark (the Go package beside this file).

Run from the repository root:

    python3 perfbench/run.py --workload hashmap-churn --seed 1 --seconds 10 --trace 0

Every argument is passed to the benchmark binary (see main.go). The build
and everything the Go toolchain writes (build cache, module cache, temp
files, telemetry) stay under the build directory: $CARGO_TARGET_DIR if it
is set, else .bench_build, relative to the repository root. A traced run
writes its spans to <build directory>/spans/.
"""
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    for var, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("GOTMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config")):
        env[var] = os.path.join(build, sub)
        os.makedirs(env[var], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="-mod=mod", GOWORK="off")

    go = shutil.which("go")
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 2
    binary = os.path.join(build, "perfbench")
    built = subprocess.run([go, "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:] + ["--out", os.path.join(build, "spans")]
    return subprocess.run([binary] + args, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
