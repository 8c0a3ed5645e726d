package repro.tables

import org.apache.spark.sql.SparkSession

import repro.core.{Metrics, MoniLog}
import repro.core.Metrics.PRF
import repro.detect.SemanticMatcher
import repro.logs.{Instability, LogSynth}
import repro.stream.MoniLogPipeline.{Models, RawLog}

/** T3 — robustness to log instability and parsing errors (§III, planned
  * experiment 2), the LogRobust protocol the paper adopts: inject 0–20 %
  * of unstable events (statement twists, extra tokens, parsing noise,
  * duplication, arrival shuffling) into the *test* stream and measure
  * how detection degrades.
  *
  * Both columns run the deployed dataflow, `MoniLog.train` on the
  * anomaly-free history then `MoniLog.detectBatch` on each injected test
  * set, so both collapse duplicate deliveries (MoniLog's own noise
  * handling, §I). They differ only in the parser's fallback:
  *   - exact    — DeepLog-like: an empty semantic matcher, so a line the
  *     frozen Drain cannot match is a novel event;
  *   - semantic — LogRobust/LogAnomaly-like: the trained matcher maps an
  *     unmatched message onto the nearest known template.
  *
  * Paper expectation (numbers from LogRobust [9]): the closed-world
  * model collapses as the ratio grows (F1 0.9+ → ~0.5) while the
  * semantic pipeline degrades mildly (→ ~0.85).
  */
object T3Instability {

  final case class Row(ratio: Double, exact: PRF, semantic: PRF)

  val Ratios: Seq[Double] = Seq(0.0, 0.05, 0.10, 0.15, 0.20)

  def run(spark: SparkSession, nSessions: Long, seed: Long = 42L): Seq[Row] = {
    import spark.implicits._
    val corpus = LogSynth.hdfsLike(spark, nSessions, anomalyRate = 0.03, quantShare = 0.0, seed)
    val cut    = DetectEval.firstTestLineId(nSessions)
    val semantic = MoniLog.train(spark,
      corpus.filter(l => l.lineId < cut && l.sessionLabel == "normal").toDF())
    val exact = semantic.copy(matcher = new SemanticMatcher(Map.empty))
    val testDs = corpus.filter(_.lineId >= cut)

    Ratios.map { ratio =>
      val test  = Instability.inject(testDs, ratio, seed = seed + 1)
      val raws  = test.select($"ts", $"source", $"sessionId", $"message").as[RawLog]
      val truth = test.select($"sessionId", $"sessionLabel" =!= "normal").distinct()
        .as[(String, Boolean)].collect()
      def score(models: Models): PRF = {
        val flagged = MoniLog.detectBatch(spark, raws, models).map(_.sessionId).collect().toSet
        Metrics.score(truth.map { case (sid, anomalous) => (flagged(sid), anomalous) })
      }
      Row(ratio, exact = score(exact), semantic = score(semantic))
    }
  }

  def render(rows: Seq[Row]): String =
    TableFmt.render(
      "T3 — detection F1 vs injected instability ratio (exact vs semantic pipeline)",
      Seq("instability", "exact P", "exact R", "exact F1", "semantic P", "semantic R", "semantic F1"),
      rows.map(r => Seq(TableFmt.pct(r.ratio),
                        TableFmt.f3(r.exact.precision), TableFmt.f3(r.exact.recall),
                        TableFmt.f3(r.exact.f1),
                        TableFmt.f3(r.semantic.precision), TableFmt.f3(r.semantic.recall),
                        TableFmt.f3(r.semantic.f1))),
    )
}
