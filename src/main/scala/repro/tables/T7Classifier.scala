package repro.tables

import org.apache.spark.sql.SparkSession

import repro.classify.PoolClassifier
import repro.classify.PoolClassifier._
import repro.logs.LogSynth

/** T7 — the feedback-trained anomaly classifier (§V): pools and
  * criticality levels learned passively from administrator actions.
  *
  * A deterministic "monitoring-team policy" (which pool handles which
  * anomaly, and each pool's criticality scale) plays the administrator:
  * the first k anomaly reports are routed by hand (each routing becomes
  * an assessment signal), then the classifier routes a held-out set.
  *
  * Paper expectation: no prior study reports numbers; the design claim
  * to validate is that accuracy grows with feedback volume, approaching
  * the policy's determinism without any extra human effort.
  */
object T7Classifier {

  final case class Row(feedback: Int, poolAccuracy: Double, critAccuracy: Double)

  val FeedbackSteps: Seq[Int] = Seq(0, 5, 10, 25, 50, 100, 200)

  /** The simulated team policy: security owns auth anomalies, a capacity
    * team owns quantitative ones, per-source ops teams own the rest.
    */
  def policyPool(r: ReportFeatures): String =
    if (r.source == "auth") "security"
    else if (r.kind == "quantitative") "capacity"
    else s"ops-${r.source}"

  def policyCriticality(pool: String): String = pool match {
    case "security"    => "high"
    case "capacity"    => "moderate"
    case "ops-network" => "moderate"
    case "ops-storage" => "high"
    case _             => "low"
  }

  /** Build the report stream from the corpus's anomalous sessions. */
  def reports(spark: SparkSession, nSessions: Long, seed: Long): Seq[ReportFeatures] = {
    val corpus = LogSynth.cloud(spark, nSessions, anomalyRate = 0.04, seed, payloadProb = 0.0)
    corpus.filter(_.sessionLabel != "normal").collect()
      .groupBy(_.sessionId).toSeq
      // arrival order, not key order — feedback arrives as anomalies do
      .sortBy { case (sid, lines) => (lines.map(_.ts.getTime).min, sid) }
      .map { case (_, lines) =>
        val ordered = lines.sortBy(_.lineId)
        ReportFeatures(ordered.head.source, ordered.head.sessionLabel,
                       ordered.map(_.templateId).distinct.sorted.toSeq)
      }
  }

  def run(spark: SparkSession, nSessions: Long, holdout: Int = 200,
          seed: Long = 42L): Seq[Row] = {
    val rs = reports(spark, nSessions, seed)
    val need = holdout + FeedbackSteps.max
    require(rs.size > need,
            s"T7 needs more than $need anomaly reports (holdout $holdout + ${FeedbackSteps.max} " +
              s"feedback actions), found ${rs.size} at nSessions $nSessions; " +
              s"try nSessions ${math.ceil(nSessions.toDouble * (need + 1) / math.max(rs.size, 1)).toLong}")
    val (feed, test) = rs.splitAt(rs.size - holdout)
    FeedbackSteps.map { k =>
      val clf = new PoolClassifier()
      feed.take(k).foreach { r =>
        val pool = policyPool(r)
        clf.observe(MoveToPool(r, pool))
        clf.observe(SetCriticality(r, pool, policyCriticality(pool)))
      }
      val results = test.map { r =>
        val (pool, crit) = clf.classify(r)
        (pool == policyPool(r), crit == policyCriticality(policyPool(r)))
      }
      Row(k,
          results.count(_._1).toDouble / results.size,
          results.count(_._2).toDouble / results.size)
    }
  }

  def render(rows: Seq[Row]): String =
    TableFmt.render(
      "T7 — pool/criticality accuracy vs administrator feedback volume",
      Seq("#feedback actions", "pool accuracy", "criticality accuracy"),
      rows.map(r => Seq(r.feedback.toString, TableFmt.f3(r.poolAccuracy),
                        TableFmt.f3(r.critAccuracy))),
    )
}
