package repro.stream

import java.sql.Timestamp

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec}
import repro.stream.MoniLogPipeline._

/** Session-window structuring behaviour (MoniLog step 2) in isolation. */
class SequenceWindowSpec extends SparkSpec {

  import spark.implicits._

  private def ev(sec: Int, session: String, tid: Int) = evMs(sec * 1000L, session, tid)

  private def evMs(ms: Long, session: String, tid: Int) =
    ParsedEvent(new Timestamp(1700000000000L + ms), "src", session, tid,
                matchedExact = true, Nil)

  test("a session with small gaps stays one sequence") {
    val parsed = Seq(ev(1, "s", 0), ev(2, "s", 1), ev(3, "s", 2)).toDS()
    val rows = MoniLogPipeline.sequence(parsed).collect()
    assert(rows.length == 1)
    assert(rows.head.events.map(_.templateId) == Seq(0, 1, 2))
  }

  test("a silence larger than the gap splits the sequence") {
    val parsed = Seq(ev(1, "s", 0), ev(2, "s", 1), ev(30, "s", 2)).toDS()
    val rows = MoniLogPipeline.sequence(parsed).collect().sortBy(_.windowStart.getTime)
    assert(rows.length == 2)
    assert(rows.head.events.map(_.templateId) == Seq(0, 1))
    assert(rows.last.events.map(_.templateId) == Seq(2))
  }

  test("events exactly SessionGap apart stay one sequence, 1 ms more splits them") {
    assert(SessionGap == "5 seconds")
    val touching = Seq(evMs(0L, "s", 0), evMs(5000L, "s", 1)).toDS()
    assert(MoniLogPipeline.sequence(touching).collect().map(_.events.size).toSeq == Seq(2))
    val apart = Seq(evMs(0L, "s", 0), evMs(5001L, "s", 1)).toDS()
    assert(MoniLogPipeline.sequence(apart).collect().map(_.events.size).toSeq == Seq(1, 1))
  }

  test("different sessions never merge even when interleaved in time") {
    val parsed = Seq(ev(1, "a", 0), ev(1, "b", 5), ev(2, "a", 1), ev(2, "b", 6)).toDS()
    val rows = MoniLogPipeline.sequence(parsed).collect()
    assert(rows.length == 2)
    assert(rows.map(_.sessionId).toSet == Set("a", "b"))
  }

  test("events are ordered by timestamp inside a sequence (out-of-order input)") {
    val parsed = Seq(ev(3, "s", 2), ev(1, "s", 0), ev(2, "s", 1)).toDS()
    val rows = MoniLogPipeline.sequence(parsed).collect()
    assert(rows.head.events.map(_.templateId) == Seq(0, 1, 2))
  }

  test("windowStart is the first event's timestamp") {
    val parsed = Seq(ev(7, "s", 0), ev(8, "s", 1)).toDS()
    val rows = MoniLogPipeline.sequence(parsed).collect()
    assert(rows.head.windowStart.getTime == 1700000000000L + 7000L)
  }

  test("per-session event counts agree with a DuckDB oracle") {
    val parsed = (1 to 50).map(i => ev(i, s"s${i % 7}", i % 3)).toDS()
    val sparkAgg = parsed.toDF().groupBy($"sessionId")
      .agg(count("*").cast("long") as "n")
    Oracle.assertEquivalent(
      sparkAgg,
      "SELECT sessionId, COUNT(*) AS n FROM ev GROUP BY sessionId",
      "ev" -> parsed.toDF().select("sessionId", "templateId"),
    )
  }
}
