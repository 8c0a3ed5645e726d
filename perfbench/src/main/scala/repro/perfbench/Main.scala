package repro.perfbench

import repro.SparkSpec
import repro.perfbench.Bench.{Metric, Result, Workload}

/** Command line of the benchmark:
  *
  * {{{
  * Main --workload <batch-clean|batch-unstable|stream-clean|retrain>
  *      --seed <n> --seconds <s> --trace <0|1>
  * }}}
  *
  * Progress goes to stderr. Stdout carries a readable summary, with each
  * end-to-end metric also under the name its workload gives it, and ends
  * with one JSON line: `correct`, `attempted`, `failed` and `metrics`
  * (end-to-end metrics untraced, per-layer metrics traced).
  */
object Main {

  final case class Args(workload: Workload, seed: Long, seconds: Double, trace: Boolean)

  def parseArgs(argv: Seq[String]): Args = {
    val kv = argv.grouped(2).map {
      case Seq(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def get(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val unknown = kv.keySet -- Set("workload", "seed", "seconds", "trace")
    require(unknown.isEmpty, s"unknown options: ${unknown.mkString(", ")}")
    val trace = get("trace")
    require(trace == "0" || trace == "1", s"--trace must be 0 or 1, got $trace")
    val seconds = get("seconds").toDouble
    require(seconds >= 0, s"--seconds must be >= 0, got $seconds")
    Args(Bench.workload(get("workload")), get("seed").toLong, seconds, trace == "1")
  }

  /** The names the end-to-end metrics carry on each workload. */
  def aliases(w: Workload, r: Result): Seq[(String, Double, String)] = {
    def v(name: String) = r.endToEnd.find(_.name == name).get.value
    val specific = w match {
      case Bench.BatchClean | Bench.BatchUnstable =>
        Seq(("batch.lines_per_s", v("lines_per_s"), "lines/s"))
      case Bench.StreamClean =>
        Seq(("stream.lines_per_s", v("lines_per_s"), "lines/s"),
            ("stream.batch_ms_p50", v("op_ms_p50"), "ms"))
      case Bench.Retrain =>
        Seq(("train_s", v("op_ms_p50") / 1000.0, "s"))
    }
    specific ++ Seq(
      ("session_f1", v("session_f1"), "ratio"),
      ("failed_frac", r.failed.toDouble / r.attempted, "ratio"),
      ("setup_s", v("setup_s"), "s"),
      ("heap_retained_mb", v("heap_retained_mb"), "MB"),
    )
  }

  def json(r: Result, metrics: Seq[Metric]): String = {
    metrics.foreach(m => require(!m.value.isNaN && !m.value.isInfinite, s"metric ${m.name} is ${m.value}"))
    val ms = metrics.map(m => s""""${m.name}": {"value": ${m.value}, "unit": "${m.unit}"}""")
    s"""{"correct": ${r.correct}, "attempted": ${r.attempted}, "failed": ${r.failed}, """ +
      s""""metrics": {${ms.mkString(", ")}}}"""
  }

  def main(argv: Array[String]): Unit = {
    val code =
      try {
        val a     = parseArgs(argv.toSeq)
        val spark = SparkSpec.shared
        val sc    = spark.sparkContext
        println(s"env workload=${a.workload.name} seed=${a.seed} seconds=${a.seconds} trace=${if (a.trace) 1 else 0} " +
                s"nproc=${Runtime.getRuntime.availableProcessors} master=${sc.master} " +
                s"default_parallelism=${sc.defaultParallelism} " +
                s"shuffle_partitions=${spark.conf.get("spark.sql.shuffle.partitions")} " +
                s"rev=${sys.props.getOrElse("perfbench.rev", "unknown")}")
        val r = Bench.run(spark, a.workload, a.seed, a.seconds, a.trace)
        val metrics = if (a.trace) r.perLayer else r.endToEnd
        aliases(a.workload, r).foreach { case (n, v, u) => println(f"e2e $n%-22s $v%.6g $u") }
        r.perLayer.foreach(m => println(f"layer ${m.name}%-36s ${m.value}%.6g ${m.unit}"))
        println(json(r, metrics))
        spark.stop()
        0
      } catch {
        case e: Throwable =>
          Console.err.println(s"[perfbench] error: $e")
          e.printStackTrace()
          1
      }
    System.exit(code)
  }
}
