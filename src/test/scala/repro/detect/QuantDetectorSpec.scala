package repro.detect

import java.math.MathContext

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable
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

  /** |x − mean| / std over `values` in 34-digit decimal arithmetic, with
    * the population std the detector uses.
    */
  private def exactZ(values: Seq[Long], x: Long): Double = {
    val mc   = MathContext.DECIMAL128
    val n    = BigDecimal(values.size, mc)
    val mean = values.map(BigDecimal(_, mc)).sum / n
    val vari = values.map(v => (BigDecimal(v, mc) - mean).pow(2)).sum / n
    ((BigDecimal(x, mc) - mean).abs / BigDecimal(vari.bigDecimal.sqrt(mc))).toDouble
  }

  /** The detector's z for `x` after fitting `values`, and the reference z. */
  private def zs(values: Seq[Long], x: Long): (Double, Double) = {
    val q = new QuantDetector().fit(values.iterator.map(v => (1, Seq(v.toString))))
    (q.score(1, Seq(x.toString)), exactZ(values, x))
  }

  /** Within 1e-6 of the reference, relative above z = 1. */
  private def close(got: Double, want: Double): Boolean =
    math.abs(got - want) <= 1e-6 * math.max(1.0, want)

  test("z-scores agree with a BigDecimal reference, also for values near 1e9") {
    val near1e9 = (0 until 200).map(i => 1000000000L + i % 10)
    for (x <- Seq(1000000004L, 1000001000L)) {
      val (got, want) = zs(near1e9, x)
      assert(close(got, want), s"z $got, exact $want")
    }
    val sample = for {
      base   <- Gen.oneOf(0L, 1000L, 1000000L, 1000000000L)
      n      <- Gen.choose(20, 200)
      spread <- Gen.listOfN(n, Gen.choose(0L, 9L)).suchThat(_.distinct.size > 1)
      probe  <- Gen.choose(-9L, 1000L)
    } yield (spread.map(base + _), math.max(0L, base + probe))
    val prop = Prop.forAllNoShrink(sample) { case (values, x) =>
      val (got, want) = zs(values, x)
      Prop(close(got, want)) :| s"z $got, exact $want"
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(300)
                              .withInitialSeed(Seed(17L)), prop)
    assert(result.passed, result.status)
  }

  /** `parseNum` as it was before the one-pass scan. */
  private def referenceParseNum(s: String): Option[Double] = {
    val t = s.stripSuffix(",")
    if (t.nonEmpty && t.forall(c => c.isDigit || c == '.') && t.count(_ == '.') <= 1)
      t.toDoubleOption
    else None
  }

  /** The detector as it was before its allocation-free rewrite: tuple
    * keys, `zipWithIndex` and an `Option` chain per slot.
    */
  private final class ReferenceDetector {
    private final class Stats {
      var n = 0L; var mean = 0.0; var m2 = 0.0
      def add(v: Double): Unit = { n += 1; val d = v - mean; mean += d / n; m2 += d * (v - mean) }
      def std: Double = if (n < 2) 0.0 else math.sqrt(m2 / n)
    }
    private val stats = mutable.Map.empty[(Int, Int), Stats]
    def observe(templateId: Int, variables: Seq[String]): Unit =
      variables.zipWithIndex.foreach { case (v, slot) =>
        referenceParseNum(v).foreach(d => stats.getOrElseUpdate((templateId, slot), new Stats).add(d))
      }
    def score(templateId: Int, variables: Seq[String]): Double = {
      var worst = 0.0
      variables.zipWithIndex.foreach { case (v, slot) =>
        for {
          d <- referenceParseNum(v)
          s <- stats.get((templateId, slot))
          if s.n >= 20 && s.std > 1e-9
        } {
          val z = math.abs(d - s.mean) / s.std
          if (z > worst) worst = z
        }
      }
      worst
    }
  }

  /** Variable strings: the edge cases by name, then random mixes of
    * digits, dots, commas, an Arabic-Indic digit and a letter.
    */
  private val edgeVars = Seq("12,", "1.2.3", "", ",", ".", "٣", "1.", ".5", "7,,", "1,2", "٣4")
  private val varGen: Gen[String] = Gen.frequency(
    2 -> Gen.oneOf(edgeVars),
    3 -> Gen.choose(0, 6).flatMap(Gen.listOfN(_, Gen.oneOf("0123456789.,٣x".toSeq))).map(_.mkString),
    5 -> Gen.choose(-5.0, 2000.0).map(d => f"${math.abs(d)}%.2f"),
    5 -> Gen.choose(0, 2000).map(_.toString),
  )

  test("parseNum equals the stripSuffix/forall/toDoubleOption reference") {
    for (v <- edgeVars)
      assert(QuantDetector.parseNum(v).equals(referenceParseNum(v).getOrElse(Double.NaN)), v)
    val prop = Prop.forAllNoShrink(varGen) { v =>
      val got = QuantDetector.parseNum(v)
      Prop(got.equals(referenceParseNum(v).getOrElse(Double.NaN))) :| s"'$v' → $got"
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(1000)
                              .withInitialSeed(Seed(31L)), prop)
    assert(result.passed, result.status)
  }

  test("observe and score equal the tuple-keyed reference bit for bit") {
    val line = for {
      tid  <- Gen.choose(1, 3)
      vars <- Gen.choose(0, 4).flatMap(Gen.listOfN(_, varGen))
    } yield (tid, vars)
    val sample = for {
      history <- Gen.choose(0, 300).flatMap(Gen.listOfN(_, line))
      probes  <- Gen.listOfN(20, line)
    } yield (history, probes)
    val prop = Prop.forAllNoShrink(sample) { case (history, probes) =>
      val q   = new QuantDetector().fit(history.iterator)
      val ref = new ReferenceDetector
      history.foreach { case (tid, vars) => ref.observe(tid, vars) }
      val diff = probes.find { case (tid, vars) => !q.score(tid, vars).equals(ref.score(tid, vars)) }
      Prop(diff.isEmpty) :| s"differs on $diff"
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(200)
                              .withInitialSeed(Seed(37L)), prop)
    assert(result.passed, result.status)
  }
}
