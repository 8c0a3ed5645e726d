package repro.stream

import java.sql.Timestamp

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{Dataset, Encoder, Encoders}
import org.apache.spark.sql.catalyst.encoders.ExpressionEncoder
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode, StreamingQuery}
import org.apache.spark.unsafe.types.UTF8String

import repro.classify.PoolClassifier
import repro.detect.{NGramModel, QuantDetector, SemanticMatcher}
import repro.parse.{Drain, Preprocess, TemplateOps}

/** MoniLog's Figure-1 dataflow as a Structured Streaming job:
  *
  *   multi-source raw stream
  *     → (1) parsing: frozen Drain + semantic matcher for novel templates
  *     → (2) sequence structuring: per-(source, sessionId) sequences cut
  *           at silences longer than the session gap by one per-key cut,
  *           run after one shuffle for batch input and when the key's
  *           event-time timer fires for streaming input
  *     → (2') detection: sequential (n-gram top-g) + quantitative (value
  *            model) over each duplicate-collapsed sequence → anomaly reports
  *     → (3) classification: pool + criticality from the feedback-trained
  *           classifier snapshot
  *
  * Every stage is a pure `DataFrame → DataFrame`/`Dataset` function so
  * batch tests, training, the streaming job and the benches share one code
  * path.
  */
object MoniLogPipeline {

  /** A raw stream record (the HEADER fields + free-text MESSAGE). */
  final case class RawLog(ts: Timestamp, source: String, sessionId: String, message: String)

  /** Structured event after parsing (step 1 output). */
  final case class ParsedEvent(
      ts: Timestamp,
      source: String,
      sessionId: String,
      templateId: Int,
      matchedExact: Boolean,   // false when the semantic matcher recovered it
      vars: Seq[String],
  )

  /** Template id assigned to messages no component could match. */
  val NovelId: Int = -999

  final case class EventRec(ts: Timestamp, templateId: Int, vars: Seq[String])

  /** One structured sequence (step 2 output). */
  final case class SeqRow(
      windowStart: Timestamp,
      source: String,
      sessionId: String,
      events: Seq[EventRec],
  )

  /** MoniLog's output record: a classified anomaly with criticality. */
  final case class AnomalyReport(
      windowStart: Timestamp,
      source: String,
      sessionId: String,
      kind: String,                // "sequential" | "quantitative"
      events: Seq[Int],
      anomalousIdx: Seq[Int],
      score: Double,
      pool: String,
      criticality: String,
  )

  /** Everything the streaming executors need, trained offline on
    * anomaly-free history (see `MoniLog.train`).
    */
  final case class Models(
      parser: Drain,
      matcher: SemanticMatcher,
      sequential: NGramModel,
      quantitative: QuantDetector,
  ) extends Serializable {
    /** The parser's table, read once on the driver; it ships in the broadcast. */
    val templates: Map[Int, Vector[String]] = parser.templates
  }

  // Derived once, not by reflection in every stage call as
  // `spark.implicits` would; lazy, so executors that only run the
  // closures never derive them.
  private implicit lazy val parsedEventEncoder: Encoder[ParsedEvent]     = Encoders.product
  private implicit lazy val eventRecEncoder: Encoder[EventRec]           = Encoders.product
  private implicit lazy val seqRowEncoder: Encoder[SeqRow]               = Encoders.product
  private implicit lazy val anomalyReportEncoder: Encoder[AnomalyReport] = Encoders.product
  private implicit lazy val keyEncoder: Encoder[(String, String)]        = ExpressionEncoder()
  private implicit lazy val heldEncoder: Encoder[Seq[EventRec]]          = ExpressionEncoder()

  // ----------------------------------------------------------------
  // step 1 — parsing
  // ----------------------------------------------------------------

  /** Parse one message against the frozen models; pure and reused by the
    * streaming map, batch evaluation and tests.
    */
  def parseOne(models: Models, raw: RawLog): ParsedEvent = {
    // a record without a message (a malformed line) is one no component can match
    if (raw.message == null) return novel(raw)
    val (core, _) = Preprocess.extractStructured(raw.message)
    val tokens    = Preprocess.tokenize(core)
    val exact     = models.parser.matchTokens(tokens)
    exact.orElse(models.matcher.mapTemplate(tokens)) match {
      case Some(id) =>
        ParsedEvent(raw.ts, raw.source, raw.sessionId, id, matchedExact = exact.isDefined,
                    TemplateOps.extractVars(models.templates(id), tokens))
      case None => novel(raw)
    }
  }

  private def novel(raw: RawLog): ParsedEvent =
    ParsedEvent(raw.ts, raw.source, raw.sessionId, NovelId, matchedExact = false, Nil)

  /** Step 1 as a stream transformation. */
  def parseStream(raw: Dataset[RawLog], models: Broadcast[Models]): Dataset[ParsedEvent] =
    raw.map(r => parseOne(models.value, r))

  // ----------------------------------------------------------------
  // step 2 — sequence structuring (gap-cut sessions)
  // ----------------------------------------------------------------

  /** Silence that closes a session, in µs (Spark's timestamp resolution). */
  val SessionGapMicros: Long = 5000000L

  /** How late an event may arrive before the streaming query drops it. */
  val Watermark = "5 seconds"

  /** Per-(source, sessionId) sequences, events ordered by (ts, templateId,
    * vars), cut wherever two consecutive events are more than the gap
    * apart. Gap-based sessions rather than tumbling windows, so an
    * execution flow is never cut at an arbitrary boundary — the structuring
    * MoniLog's detection step needs. `windowStart` is the first event's ts;
    * events without a ts are dropped.
    *
    * Both kinds of input group by (source, sessionId) and pass each key's
    * events to one [[cut]], read as `EventRec`s so that the key's strings
    * are decoded once per key. Batch input is cut after one shuffle on the
    * key into one partition per core (`defaultParallelism`, whatever
    * `spark.sql.shuffle.partitions` says). Streaming input holds each key's
    * events in state until the watermark passes an event-time timer at the
    * newest event + the gap, after which no later event can join them.
    */
  def sequence(parsed: Dataset[ParsedEvent]): Dataset[SeqRow] = {
    val timed = parsed.filter(col("ts").isNotNull)
    if (parsed.isStreaming)
      timed.withWatermark("ts", Watermark)
        .groupBy(col("source"), col("sessionId")).as[(String, String), EventRec]
        .flatMapGroupsWithState(OutputMode.Append, GroupStateTimeout.EventTimeTimeout) {
          (key, evs, state: GroupState[Seq[EventRec]]) =>
            val held = state.getOption.getOrElse(Vector.empty) ++ evs
            if (state.hasTimedOut) { state.remove(); cut(key, held) }
            else {
              state.update(held)
              state.setTimeoutTimestamp(held.map(_.ts.getTime).max + SessionGapMicros / 1000)
              Iterator.empty
            }
        }
    else
      timed.repartition(parsed.sparkSession.sparkContext.defaultParallelism,
                        col("source"), col("sessionId"))
        .groupBy(col("source"), col("sessionId")).as[(String, String), EventRec]
        .flatMapGroups((key, evs) => cut(key, evs.toVector))
  }

  /** One key's events in [[EventOrder]], split wherever two consecutive
    * events are more than [[SessionGapMicros]] apart.
    */
  private def cut(key: (String, String), events: Seq[EventRec]): Iterator[SeqRow] = {
    val sorted = events.sorted(EventOrder).toVector
    val starts = 0 +: (1 until sorted.size).filter(i =>
      micros(sorted(i).ts) - micros(sorted(i - 1).ts) > SessionGapMicros)
    starts.lazyZip(starts.tail :+ sorted.size).iterator.map { case (a, b) =>
      SeqRow(sorted(a).ts, key._1, key._2, sorted.slice(a, b))
    }
  }

  /** `sort_array`'s order of `struct(ts, templateId, vars)`: strings by
    * UTF-8 bytes (code points, not UTF-16 units), arrays then by length.
    */
  private val EventOrder: Ordering[EventRec] =
    Ordering.by((e: EventRec) => (micros(e.ts), e.templateId))
      .orElseBy(_.vars.map(UTF8String.fromString))(Ordering.Implicits.seqOrdering)

  private def micros(ts: Timestamp): Long = Math.floorDiv(ts.getTime, 1000L) * 1000000L + ts.getNanos / 1000

  // ----------------------------------------------------------------
  // step 2' — detection
  // ----------------------------------------------------------------

  private val RedeliveryMicros = 1000L

  /** Drop every event whose (templateId, vars) equals the previous kept
    * event's and that comes at most [[RedeliveryMicros]] after it: a line
    * delivered twice (§I), its copy 1 ms later, is one step of its flow.
    * Repeats with other values or later stay (genuine lines of one flow are
    * at least 10 ms apart, 2 ms under `Instability`'s ±4 ms arrival jitter).
    */
  def collapse(events: Seq[EventRec]): Seq[EventRec] = {
    val kept = Vector.newBuilder[EventRec]
    var last: EventRec = null
    events.foreach { e =>
      if (last == null || last.templateId != e.templateId || last.vars != e.vars
          || micros(e.ts) - micros(last.ts) > RedeliveryMicros) {
        kept += e
        last = e
      }
    }
    kept.result()
  }

  /** Detect anomalies in one [[collapse]]d sequence; a report's `events` and
    * `anomalousIdx` index the collapsed sequence. Pure.
    */
  def detectOne(models: Models, row: SeqRow): Option[AnomalyReport] = {
    val events = collapse(row.events)
    val ids    = events.map(_.templateId)
    val seqBad = models.sequential.anomalousEvents(ids)
    val quant  = models.quantitative
    val bad    = Vector.newBuilder[Int]
    var maxZ   = 0.0 // scores are never negative
    var i      = 0
    events.foreach { e =>
      val z = if (e.templateId == NovelId) 0.0 else quant.score(e.templateId, e.vars)
      if (z > quant.zThreshold) bad += i
      if (z > maxZ) maxZ = z
      i += 1
    }
    val quantBad = bad.result()
    if (seqBad.isEmpty && quantBad.isEmpty) None
    else {
      val kind  = if (seqBad.nonEmpty) "sequential" else "quantitative"
      val score = if (seqBad.nonEmpty) seqBad.size.toDouble else maxZ
      Some(AnomalyReport(row.windowStart, row.source, row.sessionId, kind,
                         ids, (seqBad ++ quantBad).distinct.sorted, score,
                         pool = "", criticality = ""))
    }
  }

  def detect(sequences: Dataset[SeqRow], models: Broadcast[Models]): Dataset[AnomalyReport] =
    sequences.flatMap(r => detectOne(models.value, r))

  // ----------------------------------------------------------------
  // step 3 — classification
  // ----------------------------------------------------------------

  /** Attach pool + criticality from a classifier snapshot. */
  def classify(reports: Dataset[AnomalyReport],
               classifier: Broadcast[PoolClassifier]): Dataset[AnomalyReport] =
    reports.map { r =>
      val (pool, crit) = classifier.value.classify(
        PoolClassifier.ReportFeatures(r.source, r.kind, r.events))
      r.copy(pool = pool, criticality = crit)
    }

  // ----------------------------------------------------------------
  // end-to-end
  // ----------------------------------------------------------------

  /** Full pipeline over a (possibly streaming) raw Dataset. */
  def pipeline(raw: Dataset[RawLog], models: Broadcast[Models],
               classifier: Broadcast[PoolClassifier]): Dataset[AnomalyReport] =
    classify(detect(sequence(parseStream(raw, models)), models), classifier)

  /** Launch the streaming query into an in-memory sink (tests / demos). */
  def runToMemory(raw: Dataset[RawLog], models: Broadcast[Models],
                  classifier: Broadcast[PoolClassifier], queryName: String): StreamingQuery =
    pipeline(raw, models, classifier).writeStream
      .format("memory")
      .queryName(queryName)
      .outputMode("append")
      .start()
}
