package repro.detect

import scala.collection.mutable

/** Quantitative anomaly detection — per-variable value modeling.
  *
  * The paper's second anomaly class (§III): logs following the normal
  * flow but with unusual values. DeepLog's parameter-value LSTM asks "is
  * the new value within the range implied by previously seen values";
  * this class implements that check directly with a per-(template,
  * variable-slot) Gaussian model and a z-score threshold. Only
  * numeric-parsable variable values participate; a non-numeric value is
  * neither modeled nor scored.
  *
  * Detection quality depends entirely on the parser having recovered the
  * variable parts — the dependence experiment T6 quantifies via the
  * paper's Eq. 1 token metric.
  */
class QuantDetector(val zThreshold: Double = 6.0) extends Serializable {
  import QuantDetector.{key, parseNum, MinSamples}

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

  /** Statistics per (template, variable slot), keyed by `key(templateId, slot)`. */
  private val stats = mutable.LongMap.empty[Stats]

  /** Observe one line's variables during (anomaly-free) training. */
  def observe(templateId: Int, variables: Seq[String]): Unit = {
    var slot = 0
    variables.foreach { v =>
      val d = parseNum(v)
      if (!d.isNaN) stats.getOrElseUpdate(key(templateId, slot), new Stats).add(d)
      slot += 1
    }
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
    var slot  = 0
    variables.foreach { v =>
      val d = parseNum(v)
      if (!d.isNaN) {
        val s = stats.getOrNull(key(templateId, slot))
        if (s != null && s.n >= MinSamples) {
          val std = s.std
          if (std > 1e-9) {
            val z = math.abs(d - s.mean) / std
            if (z > worst) worst = z
          }
        }
      }
      slot += 1
    }
    worst
  }

  def isAnomaly(templateId: Int, variables: Seq[String]): Boolean =
    score(templateId, variables) > zThreshold
}

object QuantDetector {

  /** One slot's map key: the template id in the high word, the slot in the low. */
  private def key(templateId: Int, slot: Int): Long =
    (templateId.toLong << 32) | (slot & 0xffffffffL)

  /** The value of a numeric variable — ASCII digits with at most one `.`
    * and an optional trailing `,` — or NaN for anything else.
    */
  private[detect] def parseNum(s: String): Double = {
    val end    = if (s.endsWith(",")) s.length - 1 else s.length
    var digits = 0
    var dots   = 0
    var i      = 0
    while (i < end) {
      val c = s.charAt(i)
      if (c >= '0' && c <= '9') digits += 1
      else if (c == '.') dots += 1
      else return Double.NaN
      i += 1
    }
    if (digits == 0 || dots > 1) Double.NaN
    else java.lang.Double.parseDouble(if (end == s.length) s else s.substring(0, end))
  }

  /** Observations a slot needs before it can score. */
  private val MinSamples = 20
}
