package repro.detect

/** Invariant Mining over event-count vectors (Lou et al., USENIX ATC'10
  * — the paper's baseline [17]).
  *
  * Mines the sparse integer linear invariants that hold across normal
  * sessions — in practice the pairwise program invariants of the form
  * p·x_i = q·x_j with small integer coefficients (e.g. every "open" has
  * a "close", every file has 3 replica events). A session is anomalous
  * iff it violates a mined invariant (or contains an unknown event).
  */
class InvariantMiner extends Serializable {

  /** Largest p or q an invariant p·x_i = q·x_j may use. */
  private val MaxCoefficient = 5
  /** Share of training vectors an invariant must hold on. */
  private val Support = 0.98

  /** Mined invariant p·x(i) == q·x(j) over dense indices (i, j). */
  final case class Invariant(i: Int, j: Int, p: Int, q: Int)

  private var invariants: Seq[Invariant] = Nil
  private var dim: Int                   = 0

  def fitted: Seq[Invariant] = invariants

  def fit(train: Array[Array[Double]]): this.type = {
    require(train.nonEmpty, "IM needs training vectors")
    dim = train.head.length
    val minSupport = Support * train.length
    val found = Seq.newBuilder[Invariant]
    for (i <- 0 until dim; j <- i + 1 until dim) {
      // only skip pairs that never occur at all; the support test below
      // handles the rest (in a multi-source corpus a same-source pair
      // co-occurs in only a fraction of sessions, yet its invariant
      // still holds — 0 == 0 elsewhere)
      val both = train.count(r => r(i) > 0 || r(j) > 0)
      if (both > 0) {
        val candidates = for {
          p <- 1 to MaxCoefficient
          q <- 1 to MaxCoefficient
          if gcd(p, q) == 1
        } yield (p, q)
        candidates.find { case (p, q) =>
          train.count(r => p * r(i) == q * r(j)) >= minSupport
        }.foreach { case (p, q) => found += Invariant(i, j, p, q) }
      }
    }
    invariants = found.result()
    this
  }

  def violations(x: Array[Double]): Seq[Invariant] =
    invariants.filter(inv => inv.p * x(inv.i) != inv.q * x(inv.j))

  def isAnomaly(x: Array[Double]): Boolean = violations(x).nonEmpty

  private def gcd(a: Int, b: Int): Int = if (b == 0) a else gcd(b, a % b)
}
