package repro.detect

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class LogClusterDetectorSpec extends AnyFunSuite {

  test("clusters collapse identical vectors") {
    val lc = new LogClusterDetector().fit(Array.fill(50)(Array(1.0, 2.0, 0.0)))
    assert(lc.numClusters == 1)
  }

  test("distinct behaviours get distinct clusters") {
    val a = Array.fill(30)(Array(5.0, 0.0, 0.0))
    val b = Array.fill(30)(Array(0.0, 0.0, 7.0))
    val lc = new LogClusterDetector().fit(a ++ b)
    assert(lc.numClusters == 2)
  }

  test("known-normal vectors score near zero") {
    val lc = new LogClusterDetector().fit(Array.fill(40)(Array(2.0, 3.0, 1.0)))
    assert(lc.score(Array(2.0, 3.0, 1.0)) < 1e-9)
    assert(!lc.isAnomaly(Array(2.0, 3.0, 1.0)))
  }

  test("a vector far from every representative is an anomaly") {
    val lc = new LogClusterDetector().fit(Array.fill(40)(Array(4.0, 4.0, 0.0, 0.0)))
    assert(lc.isAnomaly(Array(0.0, 0.0, 9.0, 9.0)))
  }

  test("small count jitter stays normal (log scaling)") {
    val rng = new Random(1)
    val rows = Array.fill(100)(Array(10.0 + rng.nextInt(3), 5.0 + rng.nextInt(2), 1.0))
    val lc = new LogClusterDetector().fit(rows)
    assert(!lc.isAnomaly(Array(11.0, 6.0, 1.0)))
  }

  test("score on empty model is max") {
    val lc = new LogClusterDetector()
    assert(lc.score(Array(1.0)) == Double.MaxValue)
    assert(lc.isAnomaly(Array(1.0)))
  }

  test("representatives keep following the running mean") {
    val rows = Array.tabulate(100)(i => Array(10.0 + (i % 2), 10.0))
    val lc = new LogClusterDetector().fit(rows)
    assert(lc.numClusters == 1)
    assert(lc.score(Array(10.5, 10.0)) < 0.01)
  }

  test("cosineDistance extremes") {
    def approx(a: Double, b: Double) = assert(math.abs(a - b) < 1e-6, s"$a vs $b")
    approx(LogClusterDetector.cosineDistance(Array(1.0, 0.0), Array(2.0, 0.0)), 0.0)
    approx(LogClusterDetector.cosineDistance(Array(1.0, 0.0), Array(0.0, 1.0)), 1.0)
    approx(LogClusterDetector.cosineDistance(Array(0.0, 0.0), Array(0.0, 0.0)), 0.0)
    approx(LogClusterDetector.cosineDistance(Array(0.0, 0.0), Array(1.0, 0.0)), 1.0)
  }
}
