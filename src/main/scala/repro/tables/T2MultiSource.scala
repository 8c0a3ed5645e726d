package repro.tables

import org.apache.spark.sql.SparkSession

import repro.core.Metrics.PRF
import repro.detect.EventVectorizer
import repro.logs.LogSynth

/** T2 — multi-source mixing (§III, planned experiment 3): compare the
  * sequence model against the counter-based methods when execution flows
  * from four sources interleave in one stream.
  *
  * Three sequence-structuring regimes, from ideal to what a raw mixed
  * stream offers:
  *   - `session`      — per-source-session grouping (exact flows);
  *   - `window+src`   — tumbling window, still keyed by source;
  *   - `window mixed` — tumbling window over the fully mixed stream.
  *
  * Paper expectation: LSTM-style sequence models are strong on clean
  * per-session flows but collapse when flows mix (their contexts stop
  * being execution flows), while counter-based methods degrade more
  * gracefully — the motivation for MoniLog's structuring step.
  */
object T2MultiSource {

  final case class Row(detector: String, regime: String, prf: PRF)

  val Regimes: Seq[String] = Seq("session", "window+src", "window mixed")

  /** Tumbling-window length of the two window regimes. */
  private val WindowDur = "2 seconds"

  def run(spark: SparkSession, nSessions: Long, seed: Long = 42L): Seq[Row] = {
    // purely sequential anomalies: this experiment is about flow mixing,
    // and quantitative anomalies are invisible to every detector here
    val corpus = LogSynth.generate(spark, LogSynth.SynthConfig(
      Seq("network", "storage", "compute", "auth"), nSessions,
      anomalyRate = 0.01, quantShare = 0.0, payloadProb = 0.0, seed = seed))
      .toDF().persist()
    val groupings: Seq[(String, Seq[EventVectorizer.SessionSeq])] = Seq(
      "session"      -> EventVectorizer.bySession(corpus).collect().toSeq,
      "window+src"   -> EventVectorizer.byWindow(corpus, WindowDur, perSource = true).collect().toSeq,
      "window mixed" -> EventVectorizer.byWindow(corpus, WindowDur, perSource = false).collect().toSeq,
    )
    val rows = groupings.flatMap { case (regime, seqs) =>
      val split = DetectEval.split(seqs)
      // window groupings cut flows at window boundaries, so sequence
      // ends there are not flow ends — disable end-transition modeling
      val checkEnd = regime == "session"
      DetectEval.counterPrfs(split).toSeq.map { case (n, p) => Row(n, regime, p) } :+
        Row("SequenceModel(DeepLog-like)", regime,
            DetectEval.ngramPrf(split, checkEnd = checkEnd))
    }
    corpus.unpersist()
    rows.sortBy(r => (r.detector, Regimes.indexOf(r.regime)))
  }

  def render(rows: Seq[Row]): String =
    TableFmt.render(
      "T2 — detectors on a 4-source interleaved stream, by sequence structuring",
      Seq("detector", "structuring", "precision", "recall", "F1"),
      rows.map(r => Seq(r.detector, r.regime, TableFmt.f3(r.prf.precision),
                        TableFmt.f3(r.prf.recall), TableFmt.f3(r.prf.f1))),
    )
}
