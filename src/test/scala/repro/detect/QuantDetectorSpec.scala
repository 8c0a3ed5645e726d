package repro.detect

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class QuantDetectorSpec extends AnyFunSuite {

  private def trained(rng: Random, n: Int = 200): QuantDetector = {
    val q = new QuantDetector(zThreshold = 6.0)
    (1 to n).foreach { _ =>
      q.observe(1, Seq((500 + 120 * rng.nextGaussian()).round.toString, "10.0.0.1"))
    }
    q
  }

  test("in-distribution values score low") {
    val q = trained(new Random(1))
    assert(q.score(1, Seq("510", "10.0.0.2")) < 2.0)
    assert(!q.isAnomaly(1, Seq("480", "10.0.0.9")))
  }

  test("a 20x value is a quantitative anomaly") {
    val q = trained(new Random(2))
    assert(q.isAnomaly(1, Seq("10000", "10.0.0.1")))
  }

  test("categorical slots never trigger") {
    val q = trained(new Random(3))
    assert(q.score(1, Seq("500", "completely-new-host")) < 6.0)
  }

  test("unknown template scores zero") {
    val q = trained(new Random(4))
    assert(q.score(99, Seq("999999")) == 0.0)
  }

  test("below minSamples the slot stays silent") {
    val q = new QuantDetector(zThreshold = 6.0)
    (1 to 5).foreach(_ => q.observe(1, Seq("100")))
    assert(q.score(1, Seq("100000")) == 0.0)
  }

  test("zero-variance slot stays silent rather than exploding") {
    val q = new QuantDetector()
    (1 to 50).foreach(_ => q.observe(1, Seq("42")))
    assert(q.score(1, Seq("43")) == 0.0)
  }

  test("fit consumes an iterator of lines") {
    val rng = new Random(5)
    val q = new QuantDetector().fit(
      (1 to 100).iterator.map(_ => (7, Seq((50 + 5 * rng.nextGaussian()).round.toString))))
    assert(q.isAnomaly(7, Seq("5000")))
    assert(!q.isAnomaly(7, Seq("52")))
  }

  test("score takes the worst slot") {
    val rng = new Random(6)
    val q = new QuantDetector()
    (1 to 100).foreach(_ => q.observe(2, Seq(
      (100 + 10 * rng.nextGaussian()).round.toString,
      (1000 + 50 * rng.nextGaussian()).round.toString)))
    val zBoth = q.score(2, Seq("105", "99999"))
    assert(zBoth > 6.0)
  }

  test("decimal values parse") {
    val rng = new Random(7)
    val q = new QuantDetector()
    (1 to 100).foreach(_ => q.observe(3, Seq(f"${40 + 4 * rng.nextGaussian()}%.2f")))
    assert(q.isAnomaly(3, Seq("4000.00")))
  }

  test("trailing commas are tolerated") {
    val q = new QuantDetector()
    (1 to 100).foreach(i => q.observe(4, Seq(s"${90 + (i % 20)},")))
    assert(q.score(4, Seq("95,")) < 6.0)
    assert(q.isAnomaly(4, Seq("90000,")))
  }
}
