package repro.detect

/** Minimal dense linear algebra for the counter-based detectors.
  *
  * The offline jar set has no usable linalg library, so PCA's
  * eigen-decomposition is implemented here via cyclic Jacobi rotations —
  * ample for event-count matrices whose dimension is the template
  * vocabulary size (tens).
  */
object LinAlg {

  /** Column means of an n×d row-major matrix. */
  def colMeans(rows: Array[Array[Double]]): Array[Double] = {
    val d   = rows.head.length
    val out = new Array[Double](d)
    rows.foreach { r => var j = 0; while (j < d) { out(j) += r(j); j += 1 } }
    var j = 0
    while (j < d) { out(j) /= rows.length; j += 1 }
    out
  }

  /** Sample covariance matrix (d×d) of mean-centered rows. */
  def covariance(rows: Array[Array[Double]], means: Array[Double]): Array[Array[Double]] = {
    val n = rows.length; val d = means.length
    val cov = Array.ofDim[Double](d, d)
    rows.foreach { r =>
      var i = 0
      while (i < d) {
        val xi = r(i) - means(i)
        var j = i
        while (j < d) { cov(i)(j) += xi * (r(j) - means(j)); j += 1 }
        i += 1
      }
    }
    val den = math.max(1, n - 1).toDouble
    for (i <- 0 until d; j <- i until d) {
      cov(i)(j) /= den
      cov(j)(i) = cov(i)(j)
    }
    cov
  }

  /** Jacobi stops after this many sweeps, or once the squared
    * off-diagonal mass falls to [[OffDiagTol]].
    */
  private val MaxSweeps  = 64
  private val OffDiagTol = 1e-12

  /** Eigen-decomposition of a symmetric matrix by cyclic Jacobi.
    *
    * @return (eigenvalues, eigenvectors as columns), sorted by
    *         descending eigenvalue
    */
  def symmetricEigen(a0: Array[Array[Double]]): (Array[Double], Array[Array[Double]]) = {
    val d = a0.length
    val a = Array.tabulate(d, d)((i, j) => a0(i)(j))
    val v = Array.tabulate(d, d)((i, j) => if (i == j) 1.0 else 0.0)

    def offDiag: Double = {
      var s = 0.0
      for (i <- 0 until d; j <- i + 1 until d) s += a(i)(j) * a(i)(j)
      s
    }

    var sweep = 0
    while (sweep < MaxSweeps && offDiag > OffDiagTol) {
      for (p <- 0 until d; q <- p + 1 until d if math.abs(a(p)(q)) > 1e-300) {
        val theta = (a(q)(q) - a(p)(p)) / (2.0 * a(p)(q))
        val t =
          if (theta == 0.0) 1.0
          else math.signum(theta) / (math.abs(theta) + math.sqrt(theta * theta + 1.0))
        val c = 1.0 / math.sqrt(t * t + 1.0)
        val s = t * c
        // rotate rows/cols p and q
        for (i <- 0 until d) {
          val aip = a(i)(p); val aiq = a(i)(q)
          a(i)(p) = c * aip - s * aiq
          a(i)(q) = s * aip + c * aiq
        }
        for (j <- 0 until d) {
          val apj = a(p)(j); val aqj = a(q)(j)
          a(p)(j) = c * apj - s * aqj
          a(q)(j) = s * apj + c * aqj
        }
        for (i <- 0 until d) {
          val vip = v(i)(p); val viq = v(i)(q)
          v(i)(p) = c * vip - s * viq
          v(i)(q) = s * vip + c * viq
        }
      }
      sweep += 1
    }

    val order = (0 until d).sortBy(i => -a(i)(i))
    val evals = order.map(i => a(i)(i)).toArray
    val evecs = Array.tabulate(d, order.length)((i, k) => v(i)(order(k)))
    (evals, evecs)
  }

  def dot(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }

  def norm2(a: Array[Double]): Double = math.sqrt(dot(a, a))

  def cosineDistance(a: Array[Double], b: Array[Double]): Double = {
    val na = norm2(a); val nb = norm2(b)
    if (na == 0.0 || nb == 0.0) { if (na == nb) 0.0 else 1.0 }
    else 1.0 - dot(a, b) / (na * nb)
  }
}
