package repro.tables

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._

import repro.core.MoniLog
import repro.logs.LogSynth
import repro.parse.{DistributedDrain, Drain}
import repro.stream.MoniLogPipeline.RawLog

/** T8 — scalability (§II "components must be distributable", §IV "we
  * plan to provide a distributed version of [the] tree-based log parsing
  * method"): parsing throughput single-thread vs distributed at growing
  * parallelism, plus the end-to-end batch throughput of the full
  * MoniLog dataflow (parse → window → detect → classify).
  *
  * Paper expectation: no absolute numbers exist; the shape to reproduce
  * is that the distributed parser scales with partitions and overtakes
  * the single-thread parser, keeping MoniLog real-time capable.
  */
object T8Scalability {

  final case class Row(config: String, lines: Long, millis: Long) {
    def linesPerSec: Double = if (millis == 0) 0.0 else lines * 1000.0 / millis
  }

  private def time[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a  = f
    (a, (System.nanoTime() - t0) / 1000000L)
  }

  def run(spark: SparkSession, nSessions: Long, seed: Long = 42L): Seq[Row] = {
    val corpus = LogSynth.cloud(spark, nSessions, anomalyRate = 0.01, seed, payloadProb = 0.0)
      .toDF().persist()
    val nLines = corpus.count()
    // single-thread Drain reads the messages in arrival (lineId) order
    val msgs   = corpus.select("lineId", "message").collect()
      .sortBy(_.getLong(0)).map(_.getString(1))

    val (_, singleMs) = time {
      val d = new Drain(4, 0.5)
      msgs.foreach(d.parse)
    }
    val single = Row("Drain single-thread", nLines, singleMs)

    val dist = Seq(1, 4, 16).map { p =>
      val (_, ms) = time {
        DistributedDrain.parse(corpus.select("lineId", "message"), 4, 0.5, p)
          .assignments.unpersist()
      }
      Row(s"DistributedDrain p=$p", nLines, ms)
    }

    // end-to-end: train on a modest anomaly-free slice, then run the full
    // batch dataflow over the whole corpus
    val trainDf = corpus.where(col("sessionLabel") === "normal")
      .limit(20000).persist()
    val models = MoniLog.train(spark, trainDf)
    trainDf.unpersist()
    import spark.implicits._
    val raw = corpus.select(col("ts"), col("source"), col("sessionId"), col("message"))
      .as[RawLog].persist()
    raw.count()
    val (_, e2eMs) = time {
      MoniLog.detectBatch(spark, raw, models).count()
    }
    raw.unpersist()
    corpus.unpersist()

    (single +: dist) :+ Row("MoniLog end-to-end (batch)", nLines, e2eMs)
  }

  def render(rows: Seq[Row]): String =
    TableFmt.render(
      "T8 — parsing & end-to-end throughput",
      Seq("configuration", "lines", "millis", "lines/s"),
      rows.map(r => Seq(r.config, r.lines.toString, r.millis.toString,
                        f"${r.linesPerSec}%.0f")),
    )
}
