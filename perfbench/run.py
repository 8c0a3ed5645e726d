#!/usr/bin/env python3
"""MoniLog benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first run compiles the system under
test (../src/main/scala) and the benchmark with sbt, offline, and caches the
resulting classpath under .bench_build/; every run then starts one JVM that
generates the workload's inputs from the seed, measures, checks the outputs
against the reference and prints one JSON object as the last stdout line.
Exits non-zero, without a JSON line, when anything fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(REPO, ".bench_build")
CLASSPATH = os.path.join(BUILD, "classpath.txt")
SOURCES = [os.path.join(REPO, "src", "main", "scala"),
           os.path.join(REPO, "src", "test", "scala", "repro", "SparkSpec.scala"),
           os.path.join(HERE, "src", "main"),
           os.path.join(HERE, "build.sbt"),
           os.path.join(HERE, "project", "build.properties")]
WORKLOADS = ["batch-clean", "batch-unstable", "stream-clean", "retrain"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# Spark on Java 17 needs these module openings (Spark's launcher adds the same).
JVM_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar")]


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def newest_mtime(paths):
    newest = 0.0
    for p in paths:
        if os.path.isfile(p):
            newest = max(newest, os.path.getmtime(p))
        for root, _, files in os.walk(p):
            for f in files:
                newest = max(newest, os.path.getmtime(os.path.join(root, f)))
    return newest


def sbt_env():
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = os.path.expanduser(os.path.join("~", ".sbt", "repositories"))
        if os.path.isfile(repos):
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    if "SPARK_HOME" not in env and shutil.which("spark-submit"):
        env["SPARK_HOME"] = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    return env


def build():
    """Compile with sbt when any source is newer than the cached classpath."""
    if os.path.isfile(CLASSPATH) and os.path.getmtime(CLASSPATH) >= newest_mtime(SOURCES):
        return
    sbt = shutil.which("sbt")
    if sbt is None:
        raise RuntimeError("sbt not found on PATH")
    log("building the benchmark (sbt compile)")
    cmd = [sbt, "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "compile", "export Runtime/fullClasspath"]
    proc = subprocess.run(cmd, cwd=HERE, env=sbt_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=BUILD_TIMEOUT_S)
    out = proc.stdout.strip().splitlines()
    sys.stderr.write("\n".join(out[-20:-1]) + "\n")
    if proc.returncode != 0 or not out or "/classes" not in out[-1]:
        raise RuntimeError(f"sbt build failed (exit {proc.returncode})")
    os.makedirs(BUILD, exist_ok=True)
    with open(CLASSPATH, "w") as f:
        f.write(out[-1].strip())


def git_rev():
    if not os.path.isdir(os.path.join(REPO, ".git")) or shutil.which("git") is None:
        return "unknown"
    try:
        return subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_jvm(args):
    with open(CLASSPATH) as f:
        cp = f.read().strip()
    for d in ("tmp", "spark-local", "warehouse"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    # A fixed-size heap, so heap sizing and GC do not differ from one JVM to
    # the next.
    cmd = [java, "-Xms3g", "-Xmx3g", "-XX:+IgnoreUnrecognizedVMOptions", *JVM_OPENS,
           "-Dio.netty.tryReflectionSetAccessible=true",
           "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false",
           f"-Djava.io.tmpdir={os.path.join(BUILD, 'tmp')}",
           f"-Dspark.local.dir={os.path.join(BUILD, 'spark-local')}",
           f"-Dspark.sql.warehouse.dir={os.path.join(BUILD, 'warehouse')}",
           f"-Dperfbench.rev={git_rev()}",
           "-cp", cp, "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=REPO, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"benchmark JVM exceeded {RUN_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write("\n".join(lines[:-1] if lines else []) + "\n")
        raise RuntimeError(f"benchmark JVM failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"malformed result line: {lines[-1]}")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()
    if not os.path.isdir(os.path.join(REPO, "src", "main", "scala", "repro")):
        log("the MoniLog sources (src/main/scala/repro) are not in this checkout")
        return 2
    try:
        build()
        run_jvm(args)
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as e:
        log(f"error: {e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
