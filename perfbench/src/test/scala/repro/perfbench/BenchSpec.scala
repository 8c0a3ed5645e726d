package repro.perfbench

import java.io.File
import java.sql.Timestamp

import com.fasterxml.jackson.databind.ObjectMapper
import scala.jdk.CollectionConverters._

import repro.SparkSpec
import repro.core.MoniLog
import repro.logs.{Instability, LogSynth}
import repro.stream.MoniLogPipeline
import repro.stream.MoniLogPipeline.{ParsedEvent, RawLog}

class BenchSpec extends SparkSpec {

  import spark.implicits._

  /** Small enough that one run of every workload fits in a test. */
  private val tiny = Bench.Sizes(sessions = 300, historySessions = 400, checkSessions = 150,
                                 streamBatch = 600, setupRounds = 1, minOps = 1, warmOps = 1,
                                 probeLines = 800, oracleLines = 300)

  private lazy val models = MoniLog.train(spark, LogSynth.cloud(spark, 400, anomalyRate = 0.0, seed = 5L).toDF())
  private lazy val classifier = Bench.trainedClassifier()

  private def agreesWithPipeline(raws: Seq[RawLog]): Unit = {
    val got = Reference.canonical(MoniLogPipeline.pipeline(
      raws.toDS(), MoniLog.broadcastModels(spark, models),
      MoniLog.broadcastClassifier(spark, classifier)).collect())
    val expected = Reference.reports(models, classifier, raws)
    assert(expected.nonEmpty)
    assert(got == expected)
  }

  private def rawOf(ds: org.apache.spark.sql.Dataset[repro.logs.LogModel.LogLine]): Seq[RawLog] =
    ds.select($"ts", $"source", $"sessionId", $"message").as[RawLog].collect().toSeq

  test("reference equals the batch pipeline on a small clean corpus") {
    agreesWithPipeline(rawOf(LogSynth.cloud(spark, 600, anomalyRate = 0.05, seed = 11L)))
  }

  test("reference equals the batch pipeline on a small unstable corpus") {
    agreesWithPipeline(rawOf(Instability.inject(
      LogSynth.cloud(spark, 600, anomalyRate = 0.05, seed = 12L), ratio = 0.2, seed = 12L)))
  }

  test("reference cuts sessions exactly where session_window does") {
    val base = 1700000000000L
    val gaps = Seq(0L, 4999L, 5000L, 5001L, 100L, 12000L)
    val evs = gaps.scanLeft(base)(_ + _).tail.zipWithIndex.map { case (t, i) =>
      ParsedEvent(new Timestamp(t), "src", "s1", i % 3, matchedExact = true, Seq(s"v$i"))
    } :+ ParsedEvent(new Timestamp(base), "src", "s1", 2, matchedExact = true, Seq("b", "a"))
    val spark = MoniLogPipeline.sequence(evs.toDS()).collect()
      .sortBy(_.windowStart.getTime).toSeq
    val ref = Reference.sessions(evs, 5000L).sortBy(_.windowStart.getTime)
    assert(ref.size == spark.size)
    assert(ref == spark)
  }

  test("the step-by-step training copy fits what MoniLog.train fits") {
    val history = LogSynth.cloud(spark, 400, anomalyRate = 0.0, seed = 5L).toDF()
    val copy = Layers.trainSteps(spark, history, new Tracer)
    assert(copy.templates == models.templates)
    assert(copy.sequences.nonEmpty && copy.rows.nonEmpty)
    assert(copy.ngram.vocabulary == models.sequential.vocabulary)
    // Same top-g successors after every prefix of every training sequence.
    for (seq <- copy.sequences; n <- 0 to seq.size)
      assert(copy.ngram.predict(seq.take(n)) == models.sequential.predict(seq.take(n)), seq.take(n))
    for ((tid, vars) <- copy.rows) {
      val (a, b) = (copy.quant.score(tid, vars), models.quantitative.score(tid, vars))
      assert(math.abs(a - b) <= 1e-9 * math.max(1.0, math.abs(b)), s"$tid $vars: $a vs $b")
    }
  }

  test("percentile interpolates between order statistics") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 2.0, 3.0)) == 2.5)
    assert(Stats.percentile(Seq(10.0, 20.0, 30.0, 40.0, 50.0), 90) == 46.0)
    assert(Stats.percentile(Seq(7.0), 99) == 7.0)
    assert(Stats.percentile(Seq(1.0, 2.0), 0) == 1.0)
    assert(Stats.percentile(Seq(1.0, 2.0), 100) == 2.0)
    assertThrows[IllegalArgumentException](Stats.median(Nil))
    assertThrows[IllegalArgumentException](Stats.percentile(Seq(1.0), 101))
  }

  /** Metric names BENCHMARK.json declares under `key`. */
  private def declared(key: String): Set[String] = {
    val json = new ObjectMapper().readTree(new File("../BENCHMARK.json"))
    json.get(key).elements().asScala.map(_.get("name").asText).toSet
  }

  private lazy val results: Map[(String, Long, Boolean), Bench.Result] =
    (for (w <- Bench.workloads; seed <- Seq(1L, 2L); trace <- Seq(false, true)
          if seed == 1L || !trace)
      yield (w.name, seed, trace) -> Bench.run(spark, w, seed, seconds = 0, trace, tiny, _ => ()))
      .toMap

  test("every workload prints every declared metric, correctly") {
    val e2e = declared("end_to_end")
    val layers = declared("per_layer")
    for (w <- Bench.workloads) {
      val untraced = results((w.name, 1L, false))
      val traced   = results((w.name, 1L, true))
      assert(untraced.correct, s"${w.name} untraced")
      assert(traced.correct, s"${w.name} traced")
      assert(untraced.endToEnd.map(_.name).toSet == e2e, w.name)
      assert(traced.perLayer.map(_.name).toSet == layers, w.name)
      // F1 may be 0 on a corpus this small; every other metric is a positive reading.
      assert(untraced.endToEnd.forall(m => if (m.name == "session_f1") m.value >= 0 && m.value <= 1
                                           else m.value > 0), s"${w.name}: ${untraced.endToEnd}")
      val json = Main.json(traced, traced.perLayer)
      assert(new ObjectMapper().readTree(json).get("metrics").size == layers.size)
    }
  }

  test("a second seed changes the inputs but not the set of metrics") {
    for (w <- Bench.workloads) {
      val a = results((w.name, 1L, false))
      val b = results((w.name, 2L, false))
      assert(a.inputFingerprint != b.inputFingerprint, w.name)
      assert(a.endToEnd.map(_.name) == b.endToEnd.map(_.name), w.name)
    }
  }

  test("declared workloads exist and arguments are validated") {
    val json = new ObjectMapper().readTree(new File("../BENCHMARK.json"))
    json.get("workloads").elements().asScala.foreach(w => Bench.workload(w.get("name").asText))
    val a = Main.parseArgs(Seq("--workload", "stream-clean", "--seed", "4", "--seconds", "10", "--trace", "1"))
    assert(a.workload == Bench.StreamClean && a.seed == 4L && a.trace)
    assertThrows[IllegalArgumentException](Main.parseArgs(Seq("--workload", "nope", "--seed", "1",
                                                                "--seconds", "1", "--trace", "0")))
    assertThrows[IllegalArgumentException](Main.parseArgs(Seq("--workload", "retrain", "--seed", "1",
                                                                "--seconds", "1", "--trace", "2")))
  }
}
