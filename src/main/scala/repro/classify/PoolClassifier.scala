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

  /** An administrator action observed by the classifier. */
  sealed trait AdminAction
  final case class MoveToPool(report: ReportFeatures, pool: String) extends AdminAction
  final case class SetCriticality(report: ReportFeatures, pool: String, criticality: String)
      extends AdminAction
}

class PoolClassifier extends Serializable {
  import PoolClassifier._

  private val pools = mutable.Set(DefaultPool)
  // pool -> (feature -> count), pool -> total reports
  private val featCounts = mutable.Map.empty[String, mutable.Map[String, Double]]
  private val poolCounts = mutable.Map.empty[String, Double]
  // (pool, criticality) -> count
  private val critCounts = mutable.Map.empty[(String, String), Double]
  private val features   = mutable.Set.empty[String]

  def knownPools: Set[String] = pools.toSet

  def createPool(name: String): Unit = pools += name

  /** Deleting a pool forgets its feedback, its features included (they
    * size the Laplace vocabulary); pending reports fall back to the
    * default pool.
    */
  def deletePool(name: String): Unit = if (name != DefaultPool) {
    pools -= name
    featCounts.remove(name)
    poolCounts.remove(name)
    critCounts.filterInPlace { case ((p, _), _) => p != name }
    features.clear()
    featCounts.valuesIterator.foreach(features ++= _.keys)
  }

  /** Apply one admin action (the passive training signal). */
  def observe(action: AdminAction): Unit = action match {
    case MoveToPool(report, pool) =>
      pools += pool
      poolCounts.updateWith(pool)(c => Some(c.getOrElse(0.0) + 1.0))
      val fc = featCounts.getOrElseUpdate(pool, mutable.Map.empty)
      report.featureBag.foreach { f =>
        features += f
        fc.updateWith(f)(c => Some(c.getOrElse(0.0) + 1.0))
      }
    case SetCriticality(_, pool, crit) =>
      pools += pool
      critCounts.updateWith((pool, crit))(c => Some(c.getOrElse(0.0) + 1.0))
  }

  /** Posterior-maximizing pool for a report (log-space NB). */
  def classifyPool(report: ReportFeatures): String = {
    if (poolCounts.isEmpty) return DefaultPool
    val total = poolCounts.values.sum
    val nFeat = math.max(1, features.size)
    val bag   = report.featureBag
    pools.toSeq.sorted.maxBy { pool =>
      val prior = math.log((poolCounts.getOrElse(pool, 0.0) + Smoothing) /
                           (total + Smoothing * pools.size))
      val fc     = featCounts.getOrElse(pool, mutable.Map.empty)
      val fcSum  = fc.values.sum
      val lik = bag.map { f =>
        math.log((fc.getOrElse(f, 0.0) + Smoothing) / (fcSum + Smoothing * nFeat))
      }.sum
      prior + lik
    }
  }

  /** Most frequent manually-assigned criticality of the pool. */
  def classifyCriticality(pool: String): String = {
    val inPool = critCounts.collect { case ((p, c), n) if p == pool => (c, n) }
    if (inPool.isEmpty) DefaultCriticality
    else inPool.toSeq.sortBy { case (c, n) => (-n, c) }.head._1
  }

  /** Full classification: (pool, criticality). */
  def classify(report: ReportFeatures): (String, String) = {
    val pool = classifyPool(report)
    (pool, classifyCriticality(pool))
  }
}
