package repro.tables

import scala.io.{Codec, Source}

import repro.SparkSpec
import repro.logs.LogSynth

/** Shape tests for every reproduced table at small scale: the claims the
  * paper (or its cited reference) makes must already hold qualitatively
  * at test size. The benches rerun them at full scale.
  */
class TablesSpec extends SparkSpec {

  /** T1–T7 are seed-deterministic: each render below must equal the one
    * recorded under `tables/` until a change says why it moves.
    */
  private def assertGolden(name: String, rendered: String): Unit = {
    val src = Source.fromResource(s"tables/$name.txt", getClass.getClassLoader)(Codec.UTF8)
    val golden = try src.mkString finally src.close()
    assert(rendered == golden, s"$name moved from its golden:\n$rendered")
  }

  test("TableFmt renders aligned rows") {
    val s = TableFmt.render("t", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("33", "4")))
    assert(s.contains("== t =="))
    assert(s.linesIterator.size == 5)
  }

  test("T1: sequence model beats every counter-based baseline on F1") {
    val rows = T1DetectorComparison.run(spark, nSessions = 800, seed = 1L)
    val byName = rows.map(r => r.detector -> r.prf).toMap
    val seqF1 = byName("SequenceModel(DeepLog-like)").f1
    assert(seqF1 > 0.8, byName.toString)
    Seq("PCA", "InvariantMining", "LogClustering").foreach { base =>
      assert(seqF1 >= byName(base).f1, s"$base ${byName(base)} vs seq $seqF1")
    }
    assertGolden("T1", T1DetectorComparison.render(rows))
  }

  test("T2: the sequence model collapses on the mixed stream, counters degrade less") {
    val rows = T2MultiSource.run(spark, nSessions = 1000, seed = 2L)
    def f1(det: String, regime: String) =
      rows.find(r => r.detector == det && r.regime == regime).get.prf.f1
    val seqSession = f1("SequenceModel(DeepLog-like)", "session")
    val seqMixed   = f1("SequenceModel(DeepLog-like)", "window mixed")
    assert(seqSession > 0.85, s"session F1 $seqSession")
    assert(seqMixed < seqSession - 0.25, s"mixed $seqMixed vs session $seqSession")
    assertGolden("T2", T2MultiSource.render(rows))
  }

  test("T3: exact pipeline collapses with instability, semantic stays robust") {
    val rows = T3Instability.run(spark, nSessions = 800, seed = 3L)
    val r0  = rows.find(_.ratio == 0.0).get
    val r20 = rows.find(_.ratio == 0.20).get
    assert(r0.exact.f1 > 0.8, r0.toString)
    assert(r20.exact.f1 < r0.exact.f1 - 0.2, s"exact ${r0.exact.f1} -> ${r20.exact.f1}")
    assert(r20.semantic.f1 > r20.exact.f1 + 0.15,
           s"semantic ${r20.semantic.f1} vs exact ${r20.exact.f1}")
    assertGolden("T3", T3Instability.render(rows))
  }

  test("ParserHarness.runDistributed leaves no cached data behind") {
    val messages = LogSynth.hdfsLike(spark, 100).toDF().select("lineId", "message")
    def cached = spark.sparkContext.getPersistentRDDs.size
    val before = cached
    val outcome = ParserHarness.runDistributed(messages)
    assert(outcome.assignments.nonEmpty)
    assert(cached == before)
  }

  test("T4a: Drain parses every corpus near-perfectly and beats Spell on the mix") {
    val rows = T4ParserBenchTable.runA(spark, nSessions = 150, seed = 4L)
    val drainRows = rows.filter(_.parser.startsWith("Drain"))
    drainRows.foreach(r =>
      assert(r.scores.groupingAccuracy > 0.9, s"${r.corpus}: ${r.scores}"))
    def acc(p: String) = rows.find(r => r.corpus == "mixed" && r.parser.startsWith(p)).get
      .scores.groupingAccuracy
    assert(acc("Drain") >= acc("Spell"))
    assertGolden("T4a", T4ParserBenchTable.renderA(rows))
  }

  test("T4a: distributed Drain stays close to single-node Drain") {
    val rows = T4ParserBenchTable.runA(spark, nSessions = 150, seed = 5L)
    val single = rows.filter(_.parser.startsWith("Drain"))
    val dist   = rows.filter(_.parser.startsWith("DistDrain"))
    single.zip(dist).foreach { case (s, d) =>
      assert(d.scores.groupingAccuracy >= s.scores.groupingAccuracy - 0.05,
             s"${d.corpus}: dist ${d.scores} vs single ${s.scores}")
    }
    assertGolden("T4a-seed5", T4ParserBenchTable.renderA(rows))
  }

  test("T4b: hyper-parameters move Drain's accuracy materially") {
    val rows = T4ParserBenchTable.runB(spark, nSessions = 150, seed = 6L)
    val accs = rows.map(_.groupingAccuracy)
    assert(accs.max - accs.min > 0.05, s"spread ${accs.max - accs.min}")
    assertGolden("T4b", T4ParserBenchTable.renderB(rows))
  }

  test("T5: pre-extraction improves both metrics and collapses template count") {
    val res = T5PreExtraction.run(spark, nSessions = 150, seed = 7L)
    val raw  = res.rows.find(_.condition == "raw message").get
    val core = res.rows.find(_.condition == "pre-extracted").get
    assert(res.payloadTokenShare > 0.15)
    assert(core.scores.groupingAccuracy > raw.scores.groupingAccuracy + 0.05)
    // payload values are wildcarded either way, so Eq.1 must not regress
    assert(core.scores.tokenAccuracy >= raw.scores.tokenAccuracy - 0.01)
    assert(core.scores.numTemplates < raw.scores.numTemplates)
    assertGolden("T5", T5PreExtraction.render(res))
  }

  test("T6: quantitative detection requires identified variable parts") {
    val rows = T6QuantDetection.run(spark, nSessions = 800, seed = 8L)
    val oracle = rows.find(_.condition.startsWith("oracle")).get
    val drain  = rows.find(_.condition.startsWith("Drain")).get
    val spell  = rows.find(_.condition.startsWith("Spell")).get
    val noVars = rows.find(_.condition.startsWith("perfect grouping")).get
    assert(oracle.prf.f1 > 0.8, oracle.toString)
    assert(drain.tokenAccuracy > spell.tokenAccuracy)
    assert(noVars.prf.f1 < 0.2, noVars.toString)
    assert(noVars.tokenAccuracy < drain.tokenAccuracy)
    assertGolden("T6", T6QuantDetection.render(rows))
  }

  test("T7: accuracy grows with feedback volume") {
    val rows = T7Classifier.run(spark, nSessions = 9000, holdout = 100, seed = 9L)
    val at0   = rows.find(_.feedback == 0).get
    val at200 = rows.find(_.feedback == 200).get
    assert(at200.poolAccuracy > at0.poolAccuracy)
    assert(at200.poolAccuracy > 0.9, at200.toString)
    assert(at200.critAccuracy > 0.9, at200.toString)
    assertGolden("T7", T7Classifier.render(rows))
  }

  test("T7: too few anomaly reports name the reports needed and a larger nSessions") {
    val e = intercept[IllegalArgumentException](T7Classifier.run(spark, nSessions = 2000))
    assert(e.getMessage == "requirement failed: T7 needs more than 400 anomaly " +
      "reports (holdout 200 + 200 feedback actions), found 76 at nSessions 2000; try nSessions 10553")
  }

  test("T8: smoke run produces positive throughput rows") {
    val rows = T8Scalability.run(spark, nSessions = 500, seed = 10L)
    assert(rows.size == 5)
    rows.foreach { r =>
      assert(r.lines > 0)
      assert(r.linesPerSec > 0, r.toString)
    }
    assert(T8Scalability.render(rows).nonEmpty)
  }
}
