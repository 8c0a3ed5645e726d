package repro.stream

import java.sql.Timestamp

import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed

import repro.SparkSpec
import repro.classify.PoolClassifier
import repro.core.MoniLog
import repro.detect.{NGramModel, QuantDetector, SemanticMatcher}
import repro.parse.{Drain, Preprocess}
import repro.stream.MoniLogPipeline._

class MoniLogPipelineSpec extends SparkSpec {

  import spark.implicits._

  /** Tiny hand-built model bundle around one two-template flow. */
  private lazy val models: Models = {
    val drain = new Drain(4, 0.5)
    val msgs = (1 to 30).flatMap(i => Seq(
      s"task started on node n$i",
      s"task finished after ${40 + i % 5} ms",
    ))
    msgs.foreach(drain.parse)
    val tids = Seq(drain.matchTokens(Preprocess.tokenize("task started on node n1")).get,
                   drain.matchTokens(Preprocess.tokenize("task finished after 42 ms")).get)
    val ngram = new NGramModel(2, 9).fit(Seq.fill(30)(tids))
    val quant = new QuantDetector(6.0)
    (1 to 60).foreach(i => quant.observe(tids(1), Seq(s"${40 + i % 5}")))
    Models(drain, new SemanticMatcher(drain.templates), ngram, quant)
  }

  private def ts(sec: Int) = ms(sec * 1000L)

  private def ms(ms: Long) = new Timestamp(1700000000000L + ms)

  private def raw(sec: Int, session: String, msg: String) =
    RawLog(ts(sec), "jobs", session, msg)

  test("parseOne matches a known template and extracts variables") {
    val ev = parseOne(models, raw(1, "s1", "task finished after 41 ms"))
    assert(ev.matchedExact)
    assert(ev.vars == Seq("41"))
  }

  test("parseOne falls back to the semantic matcher on twisted input") {
    val ev = parseOne(models, raw(1, "s1", "task completed after 41 ms"))
    assert(!ev.matchedExact)
    assert(ev.templateId != NovelId)
  }

  test("parseOne labels the genuinely novel as NovelId") {
    val ev = parseOne(models, raw(1, "s1", "utterly different content entirely foreign"))
    assert(ev.templateId == NovelId)
  }

  test("parseOne strips a JSON payload before matching") {
    val ev = parseOne(models, raw(1, "s1",
      """task finished after 44 ms {"req": "r-1", "user": "u9"}"""))
    assert(ev.matchedExact)
    assert(ev.vars == Seq("44"))
  }

  test("parseOne reads a record without a message as a NovelId event") {
    val ev = parseOne(models, raw(1, "s1", null))
    assert(ev == ParsedEvent(ts(1), "jobs", "s1", NovelId, matchedExact = false, Nil))
  }

  test("sequence groups batch events by window/source/session in order") {
    val parsed = Seq(
      ParsedEvent(ts(1), "jobs", "s1", 0, matchedExact = true, Seq("n1")),
      ParsedEvent(ts(2), "jobs", "s1", 1, matchedExact = true, Seq("42")),
      ParsedEvent(ts(1), "jobs", "s2", 0, matchedExact = true, Seq("n2")),
    ).toDS()
    val rows = sequence(parsed).collect().sortBy(_.sessionId)
    assert(rows.map(_.sessionId).toSeq == Seq("s1", "s2"))
    assert(rows.head.events.map(_.templateId) == Seq(0, 1))
  }

  test("collapse drops an event equal to the previous kept one and keeps repeats with new values") {
    val repeats = Seq(EventRec(ts(1), 1, Seq("41")), EventRec(ts(2), 1, Seq("42")),
                      EventRec(ms(2001), 1, Seq("42")), EventRec(ts(4), 1, Seq("41")))
    assert(collapse(repeats) == Seq(repeats(0), repeats(1), repeats(3)))
    // a redelivered copy comes 1 ms after its line; a genuine repeat 10 ms after stays
    val genuine = Seq(EventRec(ms(0), 1, Seq("42")), EventRec(ms(10), 1, Seq("42")),
                      EventRec(ms(11), 1, Seq("42")))
    assert(collapse(genuine) == genuine.take(2))
    // a run of three equal events keeps one; an empty sequence stays empty
    val runs = Seq(1, 1, 2, 2, 2, 3, 1).map(t => EventRec(ts(0), t, Nil))
    assert(collapse(runs).map(_.templateId) == Seq(1, 2, 3, 1))
    assert(collapse(Nil).isEmpty)
  }

  /** `collapse` as a fold over an appended Vector, before the builder pass;
    * a copy at most 1 ms after the previous kept event is a redelivery.
    */
  private def referenceCollapse(events: Seq[EventRec]): Seq[EventRec] =
    events.foldLeft(Vector.empty[EventRec]) { (kept, e) =>
      if (kept.lastOption.exists(p => p.templateId == e.templateId && p.vars == e.vars &&
                                      e.ts.getTime - p.ts.getTime <= 1)) kept
      else kept :+ e
    }

  /** `detectOne` with its per-event (index, score) tuples, before the loop. */
  private def referenceDetectOne(models: Models, row: SeqRow): Option[AnomalyReport] = {
    val events = referenceCollapse(row.events)
    val ids    = events.map(_.templateId)
    val seqBad = models.sequential.anomalousEvents(ids)
    val quantScores = events.zipWithIndex.map { case (e, i) =>
      i -> (if (e.templateId == NovelId) 0.0
            else models.quantitative.score(e.templateId, e.vars))
    }
    val quantBad = quantScores.collect { case (i, z) if z > models.quantitative.zThreshold => i }
    if (seqBad.isEmpty && quantBad.isEmpty) None
    else {
      val kind  = if (seqBad.nonEmpty) "sequential" else "quantitative"
      val score = if (seqBad.nonEmpty) seqBad.size.toDouble else quantScores.map(_._2).max
      Some(AnomalyReport(row.windowStart, row.source, row.sessionId, kind,
                         ids, (seqBad ++ quantBad).distinct.sorted, score,
                         pool = "", criticality = ""))
    }
  }

  test("collapse and detectOne equal their fold and zipWithIndex references") {
    // runs of equal (templateId, vars) 1, 3, 10 or 1000 ms apart, repeats
    // with new values, novel and unknown ids, in-range and out-of-range values
    val ids  = models.templates.keys.toSeq ++ Seq(NovelId, 77)
    val step = for {
      tid  <- Gen.oneOf(ids)
      vars <- Gen.oneOf(Seq("n1"), Seq("42"), Seq("43"), Seq("99999"), Seq("42", "x"), Nil)
      run  <- Gen.frequency(3 -> Gen.const(1), 1 -> Gen.choose(2, 4))
      gaps <- Gen.listOfN(run, Gen.oneOf(1L, 3L, 10L, 1000L))
    } yield gaps.map(gap => (gap, EventRec(ts(0), tid, vars)))
    val rowGen = Gen.choose(0, 8).flatMap(Gen.listOfN(_, step)).map { runs =>
      val steps = runs.flatten
      val at    = steps.scanLeft(0L)(_ + _._1).tail
      SeqRow(ts(0), "jobs", "s", steps.lazyZip(at).map { case ((_, e), t) => e.copy(ts = ms(t)) })
    }
    val prop = Prop.forAllNoShrink(rowGen) { row =>
      Prop(collapse(row.events) == referenceCollapse(row.events)) :| s"collapse of ${row.events}" &&
        Prop(detectOne(models, row) == referenceDetectOne(models, row)) :| s"detectOne of ${row.events}"
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(500)
                              .withInitialSeed(Seed(43L)), prop)
    assert(result.passed, result.status)
  }

  test("detectOne passes a normal sequence") {
    val row = SeqRow(ts(0), "jobs", "s1", Seq(
      EventRec(ts(1), 0, Seq("n1")), EventRec(ts(2), 1, Seq("42"))))
    assert(detectOne(models, row).isEmpty)
  }

  test("detectOne flags a sequential break") {
    val row = SeqRow(ts(0), "jobs", "s1", Seq(
      EventRec(ts(1), 1, Seq("42")), EventRec(ts(2), 0, Seq("n1"))))
    val rep = detectOne(models, row)
    assert(rep.exists(_.kind == "sequential"))
  }

  test("detectOne flags an out-of-range value as quantitative") {
    val row = SeqRow(ts(0), "jobs", "s1", Seq(
      EventRec(ts(1), 0, Seq("n1")), EventRec(ts(2), 1, Seq("99999"))))
    val rep = detectOne(models, row)
    assert(rep.exists(_.kind == "quantitative"))
    assert(rep.exists(_.score > 6.0))
  }

  test("detectOne applies the bundle's value-model threshold") {
    // the fixture's slot is 40..44, mean 42, std √2: 48 scores z ≈ 4.2
    val quant = new QuantDetector(zThreshold = 3.0)
    (1 to 60).foreach(i => quant.observe(1, Seq(s"${40 + i % 5}")))
    val row = SeqRow(ts(0), "jobs", "s1", Seq(
      EventRec(ts(1), 0, Seq("n1")), EventRec(ts(2), 1, Seq("48"))))
    assert(detectOne(models, row).isEmpty)
    val rep = detectOne(models.copy(quantitative = quant), row)
    assert(rep.exists(_.kind == "quantitative"))
    assert(rep.exists(r => r.score > 4.0 && r.score < 4.5))
  }

  test("detectOne treats a novel template as sequential anomaly") {
    val row = SeqRow(ts(0), "jobs", "s1", Seq(
      EventRec(ts(1), 0, Seq("n1")), EventRec(ts(2), NovelId, Nil)))
    assert(detectOne(models, row).exists(_.kind == "sequential"))
  }

  test("classify stamps pool and criticality from the snapshot") {
    val clf = new PoolClassifier()
    (1 to 5).foreach(_ => clf.observe(PoolClassifier.MoveToPool(
      PoolClassifier.ReportFeatures("jobs", "sequential", Seq(0, 1)), "jobs-team")))
    (1 to 5).foreach(_ => clf.observe(PoolClassifier.SetCriticality(
      PoolClassifier.ReportFeatures("jobs", "sequential", Seq(0, 1)), "jobs-team", "high")))
    val reports = Seq(AnomalyReport(ts(0), "jobs", "s1", "sequential",
                                    Seq(0, 1), Seq(1), 1.0, "", "")).toDS()
    val out = MoniLogPipeline.classify(reports,
      MoniLog.broadcastClassifier(spark, clf)).collect()
    assert(out.head.pool == "jobs-team")
    assert(out.head.criticality == "high")
  }

  test("batch pipeline end-to-end emits only the anomalous session") {
    val raws = Seq(
      raw(1, "ok", "task started on node n7"),
      raw(2, "ok", "task finished after 43 ms"),
      raw(4, "bad", "task finished after 41 ms"),
      raw(5, "bad", "task started on node n2"),
    ).toDS()
    val out = MoniLogPipeline.pipeline(
      raws, MoniLog.broadcastModels(spark, models),
      MoniLog.broadcastClassifier(spark, new PoolClassifier())).collect()
    assert(out.map(_.sessionId).toSeq == Seq("bad"))
  }

  test("the batch pipeline shuffles once, into one partition per core, whatever spark.sql.shuffle.partitions says") {
    val cores  = spark.sparkContext.defaultParallelism
    val before = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", cores + 3L)
    try {
      val out = MoniLog.detectBatch(spark, Seq(
        raw(1, "ok", "task started on node n7"),
        raw(2, "ok", "task finished after 43 ms"),
        raw(4, "bad", "task finished after 41 ms"),
        raw(5, "bad", "task started on node n2"),
      ).toDS(), models)
      assert(out.collect().map(_.sessionId).toSeq == Seq("bad"))
      val plan     = out.queryExecution.executedPlan
      val shuffles = new AdaptiveSparkPlanHelper {}.collect(plan) { case e: ShuffleExchangeExec => e }
      assert(shuffles.map(_.numPartitions) == Seq(cores), plan.toString)
      assert(out.rdd.getNumPartitions == cores)
    } finally spark.conf.set("spark.sql.shuffle.partitions", before)
  }

  /** A normal session whose first line is delivered twice, 1 ms apart. */
  private val duplicated = Seq(
    raw(1, "dup", "task started on node n7"),
    RawLog(new Timestamp(ts(1).getTime + 1), "jobs", "dup", "task started on node n7"),
    raw(2, "dup", "task finished after 43 ms"),
  )

  test("batch pipeline does not report a normal session with a duplicated delivery") {
    assert(MoniLog.detectBatch(spark, duplicated.toDS(), models).collect().isEmpty)
  }

  /** Reports of the streaming pipeline over `rows`, once a later flush row
    * has moved the watermark past their sessions; the query must still run,
    * on one state partition per core.
    */
  private def streamed(queryName: String, rows: RawLog*): Seq[AnomalyReport] = {
    implicit val sql = spark.sqlContext
    val mem = MemoryStream[RawLog]
    val query = MoniLogPipeline.runToMemory(
      mem.toDS(), MoniLog.broadcastModels(spark, models),
      MoniLog.broadcastClassifier(spark, new PoolClassifier()), queryName)
    try {
      mem.addData(rows)
      query.processAllAvailable()
      // advance event time far past the first window so it closes
      mem.addData(raw(100, "flush", "task started on node n1"))
      query.processAllAvailable()
      assert(query.isActive && query.exception.isEmpty)
      assert(query.lastProgress.stateOperators.head.numShufflePartitions ==
               spark.sparkContext.defaultParallelism)
      spark.table(queryName).as[AnomalyReport].collect().toSeq
    } finally query.stop()
  }

  test("streaming end-to-end over MemoryStream emits anomalies after the watermark") {
    val out = streamed("monilog_test",
      raw(1, "ok", "task started on node n7"),
      raw(2, "ok", "task finished after 43 ms"),
      raw(4, "bad", "task finished after 41 ms"),
      raw(5, "bad", "task started on node n2"),
    )
    assert(out.map(_.sessionId) == Seq("bad"))
    assert(out.head.kind == "sequential")
  }

  test("a streaming query survives a record without a message and reports its session") {
    val out = streamed("monilog_poison",
      raw(1, "ok", "task started on node n7"),
      raw(2, "ok", "task finished after 43 ms"),
      raw(3, "poison", null),
    )
    assert(out.map(r => (r.sessionId, r.kind, r.events)) == Seq(("poison", "sequential", Seq(NovelId))))
  }

  test("streaming pipeline does not report a normal session with a duplicated delivery") {
    assert(streamed("monilog_duplicate", duplicated: _*).isEmpty)
  }
}
