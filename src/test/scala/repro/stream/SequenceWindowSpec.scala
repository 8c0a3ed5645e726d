package repro.stream

import java.sql.Timestamp

import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.functions.{col, collect_list, sort_array, struct}
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed

import repro.{Oracle, SparkSpec}
import repro.logs.{Instability, LogSynth}
import repro.stream.MoniLogPipeline._

/** Sequence structuring (MoniLog step 2) in isolation.
  *
  * Both paths hand each (source, sessionId)'s events to one cut: the batch
  * path after a shuffle, the streaming path when the key's event-time timer
  * fires. Most cases run `sequence` twice: over a batch Dataset, and over a
  * `MemoryStream` into a memory sink, closed by a flush row an hour later.
  * The two paths must give the same rows, also when the stream arrives in
  * several micro-batches, so that a key's state spans triggers.
  */
class SequenceWindowSpec extends SparkSpec {

  import spark.implicits._

  private val Base = 1700000000000L

  private def ev(sec: Int, session: String, tid: Int) = evMs(sec * 1000L, session, tid)

  private def evMs(ms: Long, session: String, tid: Int) =
    ParsedEvent(new Timestamp(Base + ms), "src", session, tid, matchedExact = true, Nil)

  /** `sequence` of `events` on both paths, which must agree; in canonical order. */
  private def sequences(events: Seq[ParsedEvent]): Seq[SeqRow] = {
    val batch = batched(events)
    assert(streamed(events) == batch, "the streaming path disagrees with the batch path")
    batch
  }

  private def batched(events: Seq[ParsedEvent]): Seq[SeqRow] =
    canonical(MoniLogPipeline.sequence(events.toDS()).collect().toSeq)

  private var queries = 0

  /** `sequence` over a `MemoryStream` fed `batches`, one micro-batch each. */
  private def streamed(batches: Seq[ParsedEvent]*): Seq[SeqRow] = {
    implicit val sql = spark.sqlContext
    val mem   = MemoryStream[ParsedEvent]
    queries += 1
    val name  = s"sequence_window_$queries"
    val query = MoniLogPipeline.sequence(mem.toDS()).writeStream
      .format("memory").queryName(name).outputMode("append").start()
    try {
      batches.foreach { events =>
        mem.addData(events)
        query.processAllAvailable()
      }
      // an event an hour past the last one moves the watermark past every session
      val last = batches.flatten.flatMap(e => Option(e.ts)).map(_.getTime).maxOption.getOrElse(Base)
      mem.addData(ParsedEvent(new Timestamp(last + 3600000L), "flush", "flush", 0,
                              matchedExact = true, Nil))
      query.processAllAvailable()
      canonical(spark.table(name).as[SeqRow].collect().toSeq)
    } finally query.stop()
  }

  private def canonical(rows: Seq[SeqRow]): Seq[SeqRow] =
    rows.sortBy(r => (Option(r.source), Option(r.sessionId), r.windowStart.getTime,
                      r.windowStart.getNanos))

  test("a session with small gaps stays one sequence") {
    val rows = sequences(Seq(ev(1, "s", 0), ev(2, "s", 1), ev(3, "s", 2)))
    assert(rows.length == 1)
    assert(rows.head.events.map(_.templateId) == Seq(0, 1, 2))
  }

  test("a silence larger than the gap splits the sequence") {
    val rows = sequences(Seq(ev(1, "s", 0), ev(2, "s", 1), ev(30, "s", 2)))
    assert(rows.length == 2)
    assert(rows.head.events.map(_.templateId) == Seq(0, 1))
    assert(rows.last.events.map(_.templateId) == Seq(2))
  }

  test("events exactly SessionGap apart stay one sequence, 1 ms more splits them") {
    assert(SessionGapMicros == 5000000L)
    val touching = sequences(Seq(evMs(0L, "s", 0), evMs(5000L, "s", 1)))
    assert(touching.map(_.events.size) == Seq(2))
    val apart = sequences(Seq(evMs(0L, "s", 0), evMs(5001L, "s", 1)))
    assert(apart.map(_.events.size) == Seq(1, 1))
  }

  test("events SessionGap + 1 µs apart split") {
    val later = evMs(5000L, "s", 1)
    later.ts.setNanos(later.ts.getNanos + 1000)
    val rows = sequences(Seq(evMs(0L, "s", 0), later))
    assert(rows.map(_.events.size) == Seq(1, 1))
    assert(rows.last.windowStart == later.ts)
  }

  test("different sessions never merge even when interleaved in time") {
    val rows = sequences(Seq(ev(1, "a", 0), ev(1, "b", 5), ev(2, "a", 1), ev(2, "b", 6)))
    assert(rows.length == 2)
    assert(rows.map(_.sessionId).toSet == Set("a", "b"))
  }

  test("events are ordered by timestamp inside a sequence (out-of-order input)") {
    val rows = sequences(Seq(ev(3, "s", 2), ev(1, "s", 0), ev(2, "s", 1)))
    assert(rows.head.events.map(_.templateId) == Seq(0, 1, 2))
  }

  test("events with equal timestamps are ordered by (templateId, vars)") {
    val at = (tid: Int, vars: Seq[String]) => ev(1, "s", tid).copy(vars = vars)
    val rows = sequences(Seq(at(2, Seq("a")), at(1, Seq("b")), at(1, Seq("a", "z")),
                             at(1, Seq("a")), ev(0, "s", 9)))
    assert(rows.map(_.events.map(e => (e.templateId, e.vars))) == Seq(Seq(
      (9, Nil), (1, Seq("a")), (1, Seq("a", "z")), (1, Seq("b")), (2, Seq("a")))))
  }

  test("vars are ordered as sort_array orders struct(ts, templateId, vars): by code point, not UTF-16 unit") {
    // U+E000 is one UTF-16 unit above the surrogates that encode U+1F600,
    // but its UTF-8 bytes (EE…) sort before U+1F600's (F0…)
    val at = (vars: Seq[String]) => ev(1, "s", 1).copy(vars = vars)
    val events = Seq(at(Seq("\uD83D\uDE00")), at(Seq("\uE000")), at(Seq("a\uD800\uDC00", "x")),
                     at(Seq("a\uFFFF")), at(Seq("a\uFFFF", "b")))
    val sparkOrder = events.toDS().groupBy()
      .agg(sort_array(collect_list(struct(col("ts"), col("templateId"), col("vars")))) as "events")
      .select(col("events.vars")).as[Seq[Seq[String]]].head()
    assert(sequences(events).map(_.events.map(_.vars)) == Seq(sparkOrder))
    assert(sparkOrder.map(_.head) == Seq("a\uFFFF", "a\uFFFF", "a\uD800\uDC00", "\uE000", "\uD83D\uDE00"))
  }

  test("an event older than the watermark is in no emitted sequence") {
    val onTime = Seq(ev(100, "s", 0), ev(101, "s", 1), ev(100, "t", 2))
    // after the first micro-batch the watermark is 101 s − 5 s; these are older
    val late = Seq(ev(2, "s", 7), ev(1, "late", 8))
    assert(streamed(onTime, late) == batched(onTime))
  }

  test("micro-batches fed in ts order give the batch path's sequences (ScalaCheck)") {
    // mostly short gaps over three keys, so a session often outlives a
    // micro-batch and the watermark; some at and above SessionGap
    val gapMs  = Gen.frequency(6 -> Gen.oneOf(0L, 1L, 500L, 1000L, 1500L),
                               2 -> Gen.oneOf(4999L, 5000L, 5001L), 1 -> Gen.const(30000L))
    val events = for {
      n    <- Gen.choose(1, 40)
      gaps <- Gen.listOfN(n, gapMs)
      keys <- Gen.listOfN(n, Gen.oneOf(("a", "s1"), ("a", "s2"), ("b", "s1")))
      tids <- Gen.listOfN(n, Gen.choose(0, 3))
      vars <- Gen.listOfN(n, Gen.oneOf(Seq("x"), Seq("y"), Nil))
    } yield gaps.scanLeft(0L)(_ + _).tail.lazyZip(keys).lazyZip(tids.zip(vars)).map {
      case (ms, (src, sid), (tid, vs)) =>
        evMs(ms, sid, tid).copy(source = src, vars = vs)
    }
    val cases = for {
      evs  <- events
      k    <- Gen.choose(0, 4)
      cuts <- Gen.listOfN(k, Gen.choose(0, evs.size)).map(c => (0 +: c.sorted :+ evs.size).distinct)
    } yield cuts.sliding(2).collect { case Seq(a, b) => evs.slice(a, b) }.toSeq
    val prop = Prop.forAllNoShrink(cases) { batches =>
      Prop(streamed(batches: _*) == batched(batches.flatten)) :| s"micro-batches $batches"
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(12)
                              .withInitialSeed(Seed(14L)), prop)
    assert(result.passed, result.status)
  }

  test("events without a timestamp are dropped") {
    val rows = sequences(Seq(ev(1, "s", 0), ev(2, "s", 1).copy(ts = null), ev(3, "s", 2),
                             ev(4, "t", 3).copy(ts = null)))
    assert(rows.map(r => (r.sessionId, r.events.map(_.templateId))) == Seq(("s", Seq(0, 2))))
  }

  test("events without a sessionId form one group") {
    val rows = sequences(Seq(ev(1, null, 0), ev(2, "s", 5), ev(2, null, 1), ev(3, null, 2)))
    assert(rows.map(r => (r.sessionId, r.events.map(_.templateId))) ==
           Seq((null, Seq(0, 1, 2)), ("s", Seq(5))))
  }

  test("windowStart is the first event's timestamp") {
    val rows = sequences(Seq(ev(7, "s", 0), ev(8, "s", 1)))
    assert(rows.head.windowStart.getTime == Base + 7000L)
  }

  test("per-session event counts agree with a DuckDB oracle") {
    val parsed = (1 to 50).map(i => ev(i, s"s${i % 7}", i % 3))
    val counts = sequences(parsed).groupMapReduce(_.sessionId)(_.events.size.toLong)(_ + _)
    Oracle.assertEquivalent(
      counts.toSeq.toDF("sessionId", "n"),
      "SELECT sessionId, COUNT(*) AS n FROM ev GROUP BY sessionId",
      "ev" -> parsed.toDS().toDF().select("sessionId", "templateId"),
    )
  }

  test("both paths give the same sequences on an unstable multi-source corpus") {
    val lines = Instability.inject(LogSynth.cloud(spark, 600, 0.05, seed = 13), 0.2, 13)
    val parsed = lines.map(l => ParsedEvent(l.ts, l.source, l.sessionId, l.templateId,
                                            matchedExact = !l.unstable, l.variables))
      .collect().toSeq
    assert(sequences(parsed).map(_.events.size).sum == parsed.size)
  }
}
