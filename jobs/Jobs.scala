package repro.jobs

import java.io.{FileDescriptor, FileOutputStream, PrintStream}
import java.nio.charset.StandardCharsets

import scala.collection.immutable.ListMap

import org.apache.spark.sql.SparkSession

import repro.core.MoniLog
import repro.tables._

/** Shared helpers for the spark-submit entrypoints. */
object Jobs {
  /** spark-submit provides spark.master; fall back to local for direct
    * `sbt jobs/runMain` smoke runs.
    */
  def master: String = sys.props.getOrElse("spark.master", "local[*]")

  def arg(args: Array[String], idx: Int, default: Long): Long =
    if (args.length > idx) args(idx).toLong else default
}

/** One reproduced table, named on the command line.
  *
  * Usage: `spark-submit --class repro.jobs.Table repro-jobs.jar <T1..T8> [nSessions]`
  * — prints the table to stdout.
  */
object Table {

  /** Table name → (default nSessions, run-and-render). */
  private val tables = ListMap[String, (Long, (SparkSession, Long) => String)](
    // detector comparison, anomaly-free training (§III plan 1)
    "T1" -> (20000L, (s, n) => T1DetectorComparison.render(T1DetectorComparison.run(s, n))),
    // multi-source mixing (§III plan 3)
    "T2" -> (8000L, (s, n) => T2MultiSource.render(T2MultiSource.run(s, n))),
    // instability robustness (§III plan 2)
    "T3" -> (8000L, (s, n) => T3Instability.render(T3Instability.run(s, n))),
    // online parser benchmark and Drain sensitivity (§IV)
    "T4" -> (2000L, (s, n) =>
      T4ParserBenchTable.renderA(T4ParserBenchTable.runA(s, n)) + "\n\n" +
        T4ParserBenchTable.renderB(T4ParserBenchTable.runB(s, n))),
    // structured-payload pre-extraction (§IV)
    "T5" -> (2000L, (s, n) => T5PreExtraction.render(T5PreExtraction.run(s, n))),
    // quantitative detection vs token accuracy (§IV Eq. 1)
    "T6" -> (8000L, (s, n) => T6QuantDetection.render(T6QuantDetection.run(s, n))),
    // feedback-trained classifier (§V)
    "T7" -> (20000L, (s, n) => T7Classifier.render(T7Classifier.run(s, n))),
    // scalability of distributed parsing and the end-to-end pipeline
    "T8" -> (40000L, (s, n) => T8Scalability.render(T8Scalability.run(s, n))),
  )

  def main(args: Array[String]): Unit = {
    val (default, render) = args.headOption.flatMap(tables.get).getOrElse(
      throw new IllegalArgumentException(
        s"usage: repro.jobs.Table <${tables.keys.mkString("|")}> [nSessions]; " +
          s"got ${args.headOption.getOrElse("no table name")}"))
    val spark = MoniLog.session(s"monilog-${args(0)}", Jobs.master)
    // UTF-8 whatever the locale: titles carry an em dash
    val out = new PrintStream(new FileOutputStream(FileDescriptor.out), true, StandardCharsets.UTF_8)
    out.println(render(spark, Jobs.arg(args, 1, default)))
    spark.stop()
  }
}
