package repro.tables

import org.apache.spark.sql.SparkSession

import repro.core.Metrics.PRF
import repro.logs.LogSynth

/** T1 — detector comparison with anomaly-free training (§III, planned
  * experiment 1): PCA, Invariant Mining, LogClustering and the
  * DeepLog-surrogate sequence model on a single-source HDFS-shaped
  * corpus, all fitted without any labeled anomaly.
  *
  * Paper expectation (numbers from DeepLog [19], the paper's reference):
  * the sequence model wins on F1 (~0.96) with high recall; PCA is
  * precise but low-recall (~0.79 F1); IM sits between (~0.91 F1).
  */
object T1DetectorComparison {

  final case class Row(detector: String, prf: PRF)

  def run(spark: SparkSession, nSessions: Long, seed: Long = 42L): Seq[Row] = {
    val corpus = LogSynth.hdfsLike(spark, nSessions, anomalyRate = 0.03, quantShare = 0.0, seed)
    val split  = DetectEval.split(DetectEval.sessionSeqs(corpus))
    val rows   = DetectEval.counterPrfs(split).toSeq.map { case (n, p) => Row(n, p) }
    (rows :+ Row("SequenceModel(DeepLog-like)", DetectEval.ngramPrf(split)))
      .sortBy(_.detector)
  }

  def render(rows: Seq[Row]): String =
    TableFmt.render(
      "T1 — log anomaly detectors, anomaly-free training (HDFS-like corpus)",
      Seq("detector", "precision", "recall", "F1"),
      rows.map(r => Seq(r.detector, TableFmt.f3(r.prf.precision),
                        TableFmt.f3(r.prf.recall), TableFmt.f3(r.prf.f1))),
    )
}
