package repro.detect

import scala.collection.mutable

/** Quantitative anomaly detection — per-variable value modeling.
  *
  * The paper's second anomaly class (§III): logs following the normal
  * flow but with unusual values. DeepLog's parameter-value LSTM asks "is
  * the new value within the range implied by previously seen values";
  * this class implements that check directly with a per-(template,
  * variable-slot) Gaussian model and a z-score threshold. Only
  * numeric-parsable variable values participate; categorical slots are
  * modeled as a seen-value set (an unseen category is not anomalous by
  * itself — pools are open-world).
  *
  * Detection quality depends entirely on the parser having recovered the
  * variable parts — the dependence experiment T6 quantifies via the
  * paper's Eq. 1 token metric.
  */
class QuantDetector(val zThreshold: Double = 6.0) extends Serializable {
  import QuantDetector.MinSamples

  /** Mean and population std by Welford's updates, which stay exact where
    * `sumSq/n − mean²` cancels (values near 1e9 with a small spread).
    */
  private final class Stats extends Serializable {
    var n = 0L; var mean = 0.0; var m2 = 0.0
    def add(v: Double): Unit = {
      n += 1
      val d = v - mean
      mean += d / n
      m2 += d * (v - mean)
    }
    def std: Double = if (n < 2) 0.0 else math.sqrt(m2 / n)
  }

  private val stats = mutable.Map.empty[(Int, Int), Stats]

  /** Observe one line's variables during (anomaly-free) training. */
  def observe(templateId: Int, variables: Seq[String]): Unit =
    variables.zipWithIndex.foreach { case (v, slot) =>
      parseNum(v).foreach(d => stats.getOrElseUpdate((templateId, slot), new Stats).add(d))
    }

  def fit(lines: IterableOnce[(Int, Seq[String])]): this.type = {
    lines.iterator.foreach { case (tid, vars) => observe(tid, vars) }
    this
  }

  /** Max z-score over the line's numeric slots (0 when nothing numeric
    * or not enough history).
    */
  def score(templateId: Int, variables: Seq[String]): Double = {
    var worst = 0.0
    variables.zipWithIndex.foreach { case (v, slot) =>
      for {
        d <- parseNum(v)
        s <- stats.get((templateId, slot))
        if s.n >= MinSamples && s.std > 1e-9
      } {
        val z = math.abs(d - s.mean) / s.std
        if (z > worst) worst = z
      }
    }
    worst
  }

  def isAnomaly(templateId: Int, variables: Seq[String]): Boolean =
    score(templateId, variables) > zThreshold

  private def parseNum(s: String): Option[Double] = {
    val t = s.stripSuffix(",")
    if (t.nonEmpty && t.forall(c => c.isDigit || c == '.') && t.count(_ == '.') <= 1)
      t.toDoubleOption
    else None
  }
}

object QuantDetector {

  /** Observations a slot needs before it can score. */
  private val MinSamples = 20
}
