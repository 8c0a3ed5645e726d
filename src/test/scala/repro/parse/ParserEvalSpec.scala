package repro.parse

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed

import repro.{Oracle, SparkSpec}

class ParserEvalSpec extends SparkSpec {

  import spark.implicits._

  test("grouping accuracy is 1.0 for a perfect assignment") {
    assert(ParserEval.groupingAccuracy(Seq((0, 10), (0, 10), (1, 20))) == 1.0)
  }

  test("grouping accuracy penalizes a split group") {
    // lines 1,2,3 all wrong (their groups don't match the true set); 4 right
    val pairs = Seq((0, 10), (0, 10), (5, 10), (1, 20))
    assert(math.abs(ParserEval.groupingAccuracy(pairs) - 0.25) < 1e-9)
  }

  test("grouping accuracy penalizes a merged group") {
    val pairs = Seq((0, 10), (0, 20), (1, 30))
    assert(math.abs(ParserEval.groupingAccuracy(pairs) - (1.0 / 3)) < 1e-9)
  }

  test("grouping accuracy of empty input is 0") {
    assert(ParserEval.groupingAccuracy(Nil) == 0.0)
  }

  /** Holds `groupingAccuracy(pairs)` equal to the same metric in DuckDB
    * SQL, over tables built from the pairs with line i as `lineId` i.
    */
  private def assertGroupingOracle(pairs: Seq[(Int, Int)]): Unit = {
    val lines  = pairs.zipWithIndex
    val assign = lines.map { case ((pred, _), i) => (i.toLong, pred) }.toDF("lineId", "templateId")
    val truth  = lines.map { case ((_, tru), i) => (i.toLong, tru) }.toDF("lineId", "trueId")
    val sparkSide = Seq(("acc", ParserEval.groupingAccuracy(pairs))).toDF("metric", "value")
    Oracle.assertEquivalent(
      sparkSide,
      """
      WITH j AS (SELECT a.lineId, a.templateId, t.trueId
                 FROM assign a JOIN truth t ON a.lineId = t.lineId),
           p AS (SELECT templateId, COUNT(*) predN FROM j GROUP BY templateId),
           r AS (SELECT trueId, COUNT(*) trueN FROM j GROUP BY trueId),
           q AS (SELECT j.templateId, j.trueId, COUNT(*) pairN
                 FROM j GROUP BY j.templateId, j.trueId)
      SELECT 'acc' AS metric,
             CAST(COALESCE(SUM(CASE WHEN q.pairN = p.predN AND q.pairN = r.trueN
                                    THEN q.pairN ELSE 0 END), 0) AS DOUBLE)
             / (SELECT COUNT(*) FROM j) AS value
      FROM q JOIN p ON q.templateId = p.templateId
             JOIN r ON q.trueId = r.trueId
      """,
      "assign" -> assign, "truth" -> truth,
    )
  }

  test("grouping accuracy agrees with a DuckDB SQL oracle") {
    assertGroupingOracle(Seq((0, 10), (0, 10), (7, 10), (1, 20), (1, 20), (2, 30)))
  }

  test("grouping accuracy agrees with the DuckDB SQL oracle on random small assignments") {
    val pairs = Gen.choose(1, 12).flatMap(n =>
      Gen.listOfN(n, Gen.zip(Gen.choose(0, 3), Gen.choose(0, 3))))
    val prop = Prop.forAllNoShrink(pairs) { ps => assertGroupingOracle(ps); Prop.passed }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(20)
                              .withInitialSeed(Seed(23L)), prop)
    assert(result.passed, result.status)
  }

  test("lineTokenScore: perfect match scores 1") {
    assert(ParserEval.lineTokenScore("a <*> c", "a <*> c") == 1.0)
  }

  test("lineTokenScore: static mismatch scores that token 0") {
    assert(math.abs(ParserEval.lineTokenScore("a x c", "a b c") - 2.0 / 3) < 1e-9)
  }

  test("lineTokenScore: variable recovered only by wildcard") {
    assert(math.abs(ParserEval.lineTokenScore("a 42 c", "a <*> c") - 2.0 / 3) < 1e-9)
    assert(ParserEval.lineTokenScore("a <*> c", "a <*>, c") == 1.0) // punctuation-attached slot
  }

  test("lineTokenScore: truth longer than prediction") {
    assert(math.abs(ParserEval.lineTokenScore("a b", "a b c d") - 0.5) < 1e-9)
  }

  test("lineTokenScore: empty truth scores 0") {
    assert(ParserEval.lineTokenScore("a b", "") == 0.0)
  }

  test("tokenAccuracy averages per-line scores (Eq. 1)") {
    val pairs = Seq(
      ("a b c", "a b c"),   // 1.0
      ("a x c", "a b c"),   // 2/3
      ("<*> b", "<*> b"),   // 1.0
    )
    val expect = (1.0 + 2.0 / 3 + 1.0) / 3
    assert(math.abs(ParserEval.tokenAccuracy(pairs) - expect) < 1e-9)
  }

  test("tokenAccuracy of empty input is 0") {
    assert(ParserEval.tokenAccuracy(Nil) == 0.0)
  }
}
