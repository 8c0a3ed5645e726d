package repro.detect

import org.apache.commons.math3.linear.{Array2DRowRealMatrix, EigenDecomposition}
import org.apache.commons.math3.stat.StatUtils
import org.apache.commons.math3.stat.correlation.Covariance

/** PCA anomaly detection over event-count vectors (Xu et al., SOSP'09 —
  * the paper's counter-based baseline [16]).
  *
  * Fit on normal sessions only: the principal subspace captures the
  * dominant correlations of normal executions; a session's squared
  * prediction error (SPE — the squared norm of its residual-subspace
  * projection) measures deviation. The detection threshold is a high
  * quantile of the training SPE distribution times a margin, standing in
  * for the Q-statistic.
  */
class PcaDetector extends Serializable {

  /** Share of the training variance the principal subspace keeps. */
  private val VarianceFraction = 0.95
  /** Training-SPE quantile, times the margin, that sets the threshold. */
  private val ThresholdQuantile = 0.995
  private val ThresholdMargin   = 1.5

  private var means: Array[Double]            = _
  private var residual: Array[Array[Double]]  = _ // residual-subspace eigenvectors, columns
  private var threshold: Double               = _
  private var dim: Int                        = _

  def fit(train: Array[Array[Double]]): this.type = {
    require(train.length >= 2, "PCA needs at least two training vectors")
    val m = new Array2DRowRealMatrix(train, false)
    dim   = m.getColumnDimension
    means = Array.tabulate(dim)(j => StatUtils.mean(m.getColumn(j)))
    // eigenvalues of a symmetric matrix come sorted in descending order
    val eig   = new EigenDecomposition(new Covariance(m).getCovarianceMatrix)
    val evals = eig.getRealEigenvalues
    val total = math.max(evals.map(math.max(_, 0.0)).sum, 1e-12)
    var k = 0; var acc = 0.0
    while (k < evals.length && acc / total < VarianceFraction) {
      acc += math.max(evals(k), 0.0); k += 1
    }
    // residual space = components k..d-1
    val v = eig.getV
    residual = Array.tabulate(dim, dim - k)((i, j) => v.getEntry(i, k + j))
    val spes = train.map(spe).sorted
    val idx  = math.min(spes.length - 1, (ThresholdQuantile * spes.length).toInt)
    threshold = math.max(spes(idx) * ThresholdMargin, 1e-9)
    this
  }

  /** Squared prediction error of a vector in the residual subspace. */
  def spe(x: Array[Double]): Double = {
    val centered = Array.tabulate(dim)(i => x(i) - means(i))
    var s = 0.0
    var j = 0
    val r = residual.head.length
    while (j < r) {
      var p = 0.0; var i = 0
      while (i < dim) { p += centered(i) * residual(i)(j); i += 1 }
      s += p * p
      j += 1
    }
    s
  }

  def isAnomaly(x: Array[Double]): Boolean = spe(x) > threshold

  def fittedThreshold: Double = threshold
}
