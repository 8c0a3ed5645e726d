package repro.tables

import org.apache.spark.sql.Dataset

import repro.core.Metrics
import repro.core.Metrics.PRF
import repro.detect._
import repro.detect.EventVectorizer.SessionSeq
import repro.logs.LogModel.LogLine
import repro.logs.LogSynth

/** Shared harness for the detector experiments (T1–T3): chronological
  * train/test split, counter-based and sequence-based detectors fitted
  * on anomaly-free training data (the paper's §III plan), P/R/F1 per
  * detector.
  */
object DetectEval {

  /** Share of the groups, earliest first, that [[split]] trains on. */
  private val TrainFrac = 0.6

  /** First line id past the [[TrainFrac]] share of `nSessions` sessions,
    * which a split by line id tests from.
    */
  def firstTestLineId(nSessions: Long): Long =
    (nSessions * TrainFrac).toLong * LogSynth.LineIdStride

  /** Anomaly-free training sequences + labeled test sequences. */
  final case class Split(trainSeqs: Seq[Seq[Int]], test: Seq[SessionSeq])

  /** Deterministic chronological split: earlier groups train (normals
    * only — the paper insists training must not require anomalies),
    * later groups test.
    */
  def split(seqs: Seq[SessionSeq]): Split = {
    val sorted = seqs.sortBy(s => (s.start.getTime, s.key))
    val n      = (sorted.size * TrainFrac).toInt
    val (tr, te) = sorted.splitAt(n)
    Split(tr.filter(_.label == "normal").map(_.events), te)
  }

  /** Collect per-session sequences from labeled lines (ground-truth
    * template ids — used when the experiment isolates detection from
    * parsing).
    */
  def sessionSeqs(lines: Dataset[LogLine]): Seq[SessionSeq] =
    EventVectorizer.bySession(lines.toDF()).collect().toSeq

  def prf(decide: SessionSeq => Boolean, test: Seq[SessionSeq]): PRF =
    Metrics.score(test.map(s => (decide(s), s.label != "normal")))

  /** Fit and score the three counter-based baselines. Sequences with an
    * out-of-vocabulary event are anomalous for every counter method
    * (their count dimension does not exist in the trained model).
    */
  def counterPrfs(s: Split): Map[String, PRF] = {
    val vocab  = EventVectorizer.vocabulary(s.trainSeqs)
    val train  = s.trainSeqs.map(e => EventVectorizer.countVector(e, vocab)).toArray
    val pca    = new PcaDetector().fit(train)
    val im     = new InvariantMiner().fit(train)
    val lc     = new LogClusterDetector().fit(train)
    def vec(ss: SessionSeq) = EventVectorizer.countVector(ss.events, vocab)
    def withUnknown(f: Array[Double] => Boolean)(ss: SessionSeq): Boolean =
      EventVectorizer.hasUnknown(ss.events, vocab) || f(vec(ss))
    Map(
      "PCA"           -> prf(withUnknown(pca.isAnomaly), s.test),
      "InvariantMining" -> prf(withUnknown(im.isAnomaly), s.test),
      "LogClustering" -> prf(withUnknown(lc.isAnomaly), s.test),
    )
  }

  /** Fit and score the DeepLog-surrogate sequence model (order 2, top 9).
    *
    * @param checkEnd model end-of-sequence transitions; disable for
    *                 window-fragment groupings where a group boundary is
    *                 not a flow boundary
    */
  def ngramPrf(s: Split, checkEnd: Boolean = true): PRF = {
    val m = new NGramModel(checkEnd = checkEnd).fit(s.trainSeqs)
    prf(ss => m.isAnomalous(ss.events), s.test)
  }
}
