package repro.classify

import scala.collection.mutable

/** MoniLog step 3 (§V): assign each anomaly report a pool (the team /
  * anomaly class that should handle it) and a criticality level,
  * learning *passively* from administrator actions.
  *
  * Pools are dynamic: administrators create and delete them at runtime;
  * initially only `"default"` exists. Two feedback signals train the
  * model, exactly the two the paper names:
  *
  *   - an alert moved from one pool to another → an assessment signal
  *     for pool assignment;
  *   - a manually corrected criticality → a signal for criticality
  *     evaluation.
  *
  * The learner is an online multinomial naive Bayes over the report's
  * symbolic features (source, anomaly kind, templates present); a
  * per-pool criticality distribution handles levels. NB is a natural fit
  * here: single-pass updates (each admin action is applied once, in
  * stream order) and robustness to the tiny feedback volumes a
  * monitoring team produces.
  */
object PoolClassifier {
  val DefaultPool        = "default"
  val DefaultCriticality = "moderate"

  /** Laplace smoothing of the naive-Bayes counts. */
  private val Smoothing = 1.0

  /** Minimal view of an anomaly report used for classification. */
  final case class ReportFeatures(
      source: String,
      kind: String,          // "sequential" | "quantitative"
      templateIds: Seq[Int],
  ) {
    /** Weighted feature bag: the anomaly kind and source are the primary
      * routing signals a monitoring team acts on, so they carry more
      * weight than the (numerous, heavily overlapping) template features.
      */
    def featureBag: Seq[String] =
      Seq.fill(3)(s"kind:$kind") ++ Seq.fill(2)(s"src:$source") ++
        templateIds.distinct.map(t => s"tpl:$t")
  }

  /** One pool's feedback: reports moved in, their features, criticality corrections. */
  private final class Pool extends Serializable {
    var reports  = 0
    val features = mutable.Map.empty[String, Int]
    val levels   = mutable.Map.empty[String, Int]
  }

  /** An administrator action observed by the classifier. */
  sealed trait AdminAction
  final case class MoveToPool(report: ReportFeatures, pool: String) extends AdminAction
  final case class SetCriticality(report: ReportFeatures, pool: String, criticality: String)
      extends AdminAction
}

class PoolClassifier extends Serializable {
  import PoolClassifier._

  /** Pool name → its feedback, in name order: a tie goes to the first name. */
  private val pools = mutable.TreeMap(DefaultPool -> new Pool)
  /** Every feature of a moved report, the Laplace vocabulary. */
  private val vocabulary = mutable.Set.empty[String]

  def knownPools: Set[String] = pools.keySet.toSet

  def createPool(name: String): Unit = pools.getOrElseUpdate(name, new Pool)

  /** Deleting a pool forgets its feedback, its features included (they
    * size the Laplace vocabulary); pending reports fall back to the
    * default pool.
    */
  def deletePool(name: String): Unit = if (name != DefaultPool) {
    pools -= name
    vocabulary.clear()
    pools.valuesIterator.foreach(vocabulary ++= _.features.keys)
  }

  /** Apply one admin action (the passive training signal). */
  def observe(action: AdminAction): Unit = action match {
    case MoveToPool(report, name) =>
      val p = pools.getOrElseUpdate(name, new Pool)
      p.reports += 1
      report.featureBag.foreach { f =>
        vocabulary += f
        p.features(f) = p.features.getOrElse(f, 0) + 1
      }
    case SetCriticality(_, name, level) =>
      val p = pools.getOrElseUpdate(name, new Pool)
      p.levels(level) = p.levels.getOrElse(level, 0) + 1
  }

  /** Posterior-maximizing pool for a report (log-space NB). */
  def classifyPool(report: ReportFeatures): String = {
    val total = pools.valuesIterator.map(_.reports).sum
    if (total == 0) return DefaultPool
    val nFeat = math.max(1, vocabulary.size)
    val bag   = report.featureBag
    pools.maxBy { case (_, p) =>
      val prior = math.log((p.reports + Smoothing) / (total + Smoothing * pools.size))
      val fcSum = p.features.values.sum
      val lik = bag.map { f =>
        math.log((p.features.getOrElse(f, 0) + Smoothing) / (fcSum + Smoothing * nFeat))
      }.sum
      prior + lik
    }._1
  }

  /** Most frequent manually-assigned criticality of the pool; a tie goes to the first level name. */
  def classifyCriticality(pool: String): String =
    pools.get(pool).filter(_.levels.nonEmpty)
      .fold(DefaultCriticality)(_.levels.minBy { case (c, n) => (-n, c) }._1)

  /** Full classification: (pool, criticality). */
  def classify(report: ReportFeatures): (String, String) = {
    val pool = classifyPool(report)
    (pool, classifyCriticality(pool))
  }
}
