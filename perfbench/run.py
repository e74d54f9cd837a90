#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload build-powerlaw --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run compiles the program's
sources together with the benchmark code (perfbench/build.sbt) into
.bench_build/; later runs reuse that build until a source file changes.
The last line of standard output is the JSON result; everything before it
is the human-readable report. Trace files (spans, Spark counters, samples
and the run context) go to .bench_build/perfbench/.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
STAMP = BUILD_DIR / "perfbench.stamp"
CLASSPATH = BUILD_DIR / "perfbench.classpath"
PROGRAM_SOURCES = ROOT / "src" / "main" / "scala"

WORKLOADS = ("build-powerlaw", "approx-dense", "query-sweep")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# A fixed-size heap and the throughput collector: with G1 and a growing
# heap, each run's operations kept speeding up for its whole window. Then the
# JDK 17 --add-opens set Spark's launcher adds (as in the root build.sbt).
JVM_OPTIONS = [
    "-Xms3g",
    "-Xmx3g",
    "-XX:+UseParallelGC",
    "-Dspark.driver.host=127.0.0.1",
    "-XX:+IgnoreUnrecognizedVMOptions",
] + [
    "--add-opens=java.base/%s=ALL-UNNAMED" % p
    for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
        "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
        "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar",
    )
]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_hash():
    """Hash of every file the build reads: the program and the benchmark."""
    h = hashlib.sha256()
    files = [p for p in PROGRAM_SOURCES.rglob("*") if p.is_file()]
    files += [p for p in (BENCH_DIR / "src").rglob("*") if p.is_file()]
    files += [BENCH_DIR / "build.sbt", BENCH_DIR / "project" / "build.properties"]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = str(Path(shutil.which("spark-submit")).resolve().parent.parent)
    if not home or not (Path(home) / "jars").is_dir():
        fail("cannot find Spark: set SPARK_HOME to a Spark distribution")
    return home


def ensure_built(env):
    digest = source_hash()
    if STAMP.exists() and CLASSPATH.exists() and STAMP.read_text() == digest:
        cp = CLASSPATH.read_text().strip()
        if all(Path(p).exists() for p in cp.split(os.pathsep)):
            return cp
    if not shutil.which("sbt"):
        fail("sbt is needed to build the benchmark")
    BUILD_DIR.mkdir(exist_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "compile", "export Runtime/fullClasspath"]
    try:
        out = subprocess.run(cmd, cwd=BENCH_DIR, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if out.returncode != 0:
        sys.stderr.write(out.stdout)
        fail("build failed")
    lines = [l for l in out.stdout.splitlines() if "scala-library" in l and not l.startswith("[")]
    if not lines:
        sys.stderr.write(out.stdout)
        fail("build did not report a classpath")
    cp = lines[-1].strip()
    CLASSPATH.write_text(cp)
    STAMP.write_text(digest)
    return cp


def commit_id():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--scale", default="full", choices=("full", "tiny"),
                    help="tiny: seconds-long graphs for the smoke test")
    args = ap.parse_args()

    if not (PROGRAM_SOURCES / "repro").is_dir():
        fail("no program sources at src/main/scala/repro: run from a full checkout")

    env = dict(os.environ)
    env["SPARK_HOME"] = spark_home()
    env.setdefault("COURSIER_MODE", "offline")
    cp = ensure_built(env)

    out_dir = BUILD_DIR / "perfbench"
    tmp = out_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    java = str(Path(env["JAVA_HOME"]) / "bin" / "java") if env.get("JAVA_HOME") else "java"
    cmd = [java] + JVM_OPTIONS + ["-Djava.io.tmpdir=" + str(tmp), "-cp", cp, "perfbench.Bench",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--scale", args.scale,
           "--out", str(out_dir), "--commit", commit_id()]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run did not finish within %d s" % RUN_TIMEOUT_S, code=3)
    sys.exit(code)


if __name__ == "__main__":
    main()
