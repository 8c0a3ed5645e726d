package repro.detect

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class PcaDetectorSpec extends AnyFunSuite {

  /** Correlated normal data: x2 ≈ 2·x1, x3 independent noise. */
  private def normalRows(n: Int, rng: Random): Array[Array[Double]] =
    Array.fill(n) {
      val base = 5.0 + rng.nextGaussian()
      Array(base, 2 * base + 0.05 * rng.nextGaussian(), rng.nextGaussian())
    }

  test("normal points stay under the threshold") {
    val rng = new Random(1)
    val pca = new PcaDetector().fit(normalRows(500, rng))
    val fresh = normalRows(200, rng)
    val fp = fresh.count(pca.isAnomaly)
    assert(fp <= 6, s"false positives: $fp") // ≲ threshold quantile tail
  }

  test("breaking the correlation is detected") {
    val rng = new Random(2)
    val pca = new PcaDetector().fit(normalRows(500, rng))
    // x2 no longer 2·x1 — large residual off the principal subspace
    val anomaly = Array(5.0, 30.0, 0.0)
    assert(pca.isAnomaly(anomaly))
  }

  test("spe is near zero on the training mean") {
    val rng = new Random(3)
    val rows = normalRows(300, rng)
    val pca = new PcaDetector().fit(rows)
    val mean = Array.tabulate(3)(j => rows.map(_(j)).sum / rows.length)
    assert(pca.spe(mean) < pca.fittedThreshold)
  }

  test("scaling along the principal direction is not an anomaly") {
    val rng = new Random(4)
    val pca = new PcaDetector().fit(normalRows(500, rng))
    // stays on the x2 = 2·x1 line: inside the principal subspace
    assert(!pca.isAnomaly(Array(7.0, 14.0, 0.0)))
  }

  test("fit on constant data never flags the constant") {
    val rows = Array.fill(50)(Array(3.0, 1.0))
    val pca = new PcaDetector().fit(rows)
    assert(!pca.isAnomaly(Array(3.0, 1.0)))
  }

  test("fit requires data") {
    intercept[IllegalArgumentException](new PcaDetector().fit(Array.empty))
    // a sample covariance needs two rows
    intercept[IllegalArgumentException](new PcaDetector().fit(Array(Array(1.0, 2.0))))
  }

  test("rank-deficient counts: a constant and a proportional column") {
    // HDFS-shaped: a fixed step always counts 1 and one step always runs
    // twice per run of another, so two covariance eigenvalues are exactly 0
    def row(rng: Random) = {
      val runs = 1.0 + rng.nextInt(4)
      Array(runs, 2 * runs, 1.0, rng.nextInt(3).toDouble)
    }
    val rng = new Random(6)
    val pca = new PcaDetector().fit(Array.fill(500)(row(rng)))
    val fresh = Array.fill(200)(row(rng))
    assert(!fresh.exists(pca.isAnomaly), fresh.filter(pca.isAnomaly).map(_.mkString(",")).mkString(" "))
    assert(pca.isAnomaly(Array(2.0, 5.0, 1.0, 1.0))) // breaks the multiple
    assert(pca.isAnomaly(Array(2.0, 4.0, 2.0, 1.0))) // breaks the constant
  }

  test("threshold is positive") {
    val rng = new Random(5)
    val pca = new PcaDetector().fit(normalRows(100, rng))
    assert(pca.fittedThreshold > 0)
  }
}
