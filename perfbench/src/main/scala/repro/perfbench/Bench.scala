package repro.perfbench

import java.sql.Timestamp

import scala.collection.mutable

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.functions._
import org.apache.spark.sql.streaming.{StreamingQuery, StreamingQueryProgress}

import repro.Oracle
import repro.classify.PoolClassifier
import repro.core.{Metrics, MoniLog}
import repro.logs.{Instability, LogSynth}
import repro.stream.MoniLogPipeline
import repro.stream.MoniLogPipeline.{AnomalyReport, Models, RawLog}

/** The MoniLog benchmark: one workload per run, end-to-end metrics from
  * untraced operations, per-layer metrics from a traced run.
  *
  * The load generator (`repro.logs`) makes every input from the seed in
  * set-up; the system under test sees only the generated lines. Every timed
  * operation's output is compared with [[Reference]].
  */
object Bench {

  sealed abstract class Workload(val name: String)
  /** Frozen-Drain parsing and the session-window shuffle do the work. */
  case object BatchClean extends Workload("batch-clean")
  /** One line in ten reaches the semantic fallback; classify does ~5x more. */
  case object BatchUnstable extends Workload("batch-unstable")
  /** The deployed path: per-trigger state-store cost dominates. */
  case object StreamClean extends Workload("stream-clean")
  /** The only workload that runs Drain in learning mode. */
  case object Retrain extends Workload("retrain")

  val workloads: Seq[Workload] = Seq(BatchClean, BatchUnstable, StreamClean, Retrain)

  def workload(name: String): Workload =
    workloads.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(
        s"unknown workload '$name' (expected one of ${workloads.map(_.name).mkString(", ")})"))

  /** Input sizes. `Full` is the benchmark; tests run a scaled-down copy. */
  final case class Sizes(
      sessions: Long = 40000,      // serving corpus, ~220k lines
      historySessions: Long = 8000, // anomaly-free training history, ~44k lines
      checkSessions: Long = 2000,   // retrain: corpus the retrained bundle is checked on
      streamBatch: Int = 10000,     // lines per stream micro-batch
      setupRounds: Int = 3,         // odd, so the median is one round's time
      minOps: Int = 2,              // per run, even when --seconds is shorter
      warmOps: Int = 1,             // untimed batch pipeline runs after set-up, before timing
      probeLines: Int = 40000,      // lines per single-thread kernel probe
      oracleLines: Int = 2000,      // lines the DuckDB oracle re-counts
  )
  val Full: Sizes = Sizes()

  val AnomalyRate = 0.03
  val PayloadProb = 0.7
  val InstabilityRatio = 0.2

  final case class Metric(name: String, value: Double, unit: String)

  final case class Result(
      attempted: Int,
      failed: Int,
      endToEnd: Seq[Metric],
      perLayer: Seq[Metric],
      inputFingerprint: Long,
  ) {
    def correct: Boolean = failed == 0
  }

  /** A generated, labelled input line (the label never reaches the system). */
  final case class Line(lineId: Long, ts: Timestamp, source: String, sessionId: String,
                        message: String, sessionLabel: String) {
    def raw: RawLog = RawLog(ts, source, sessionId, message)
  }

  /** Everything one set-up round produces. */
  final class Setup(
      val lines: Dataset[Line],        // cached serving corpus, labelled
      val history: DataFrame,           // cached training history
      val models: Models,
      val bModels: Broadcast[Models],
      val bClassifier: Broadcast[PoolClassifier],
  ) {
    def serving: Dataset[RawLog] = {
      import lines.sparkSession.implicits._
      lines.select(col("ts"), col("source"), col("sessionId"), col("message")).as[RawLog]
    }
    def release(): Unit = { lines.unpersist(); history.unpersist() }
  }

  // ------------------------------------------------------------------
  // set-up
  // ------------------------------------------------------------------

  /** A fixed feedback history, so classification does real naive-Bayes work:
    * each (source, kind) has its own pool, sequential anomalies are critical.
    */
  def trainedClassifier(): PoolClassifier = {
    val clf = new PoolClassifier()
    for (src <- Seq("network", "storage", "compute", "auth");
         kind <- Seq("sequential", "quantitative");
         i <- 1 to 5) {
      val f    = PoolClassifier.ReportFeatures(src, kind, Seq(i))
      val pool = s"$src-$kind"
      clf.observe(PoolClassifier.MoveToPool(f, pool))
      clf.observe(PoolClassifier.SetCriticality(f, pool, if (kind == "sequential") "high" else "moderate"))
    }
    clf
  }

  private def historySeed(seed: Long): Long = seed * 1000003L + 17L

  def generate(spark: SparkSession, w: Workload, seed: Long, sz: Sizes): (Dataset[Line], DataFrame) = {
    import spark.implicits._
    val history = LogSynth.cloud(spark, sz.historySessions, anomalyRate = 0.0,
                                 seed = historySeed(seed)).toDF().persist()
    history.count()
    val corpus = w match {
      case Retrain => LogSynth.cloud(spark, sz.checkSessions, AnomalyRate, seed, PayloadProb)
      case BatchUnstable =>
        Instability.inject(LogSynth.cloud(spark, sz.sessions, AnomalyRate, seed, PayloadProb),
                           InstabilityRatio, seed)
      case _ => LogSynth.cloud(spark, sz.sessions, AnomalyRate, seed, PayloadProb)
    }
    val lines = corpus.select(col("lineId"), col("ts"), col("source"), col("sessionId"),
                              col("message"), col("sessionLabel")).as[Line].persist()
    lines.count()
    (lines, history)
  }

  // ------------------------------------------------------------------
  // timed operations
  // ------------------------------------------------------------------

  def runBatch(s: Setup): Vector[AnomalyReport] =
    Reference.canonical(MoniLogPipeline.pipeline(s.serving, s.bModels, s.bClassifier).collect())

  /** A streaming query over a `MemoryStream`, fed by one closed-loop client. */
  final class StreamRun(spark: SparkSession, s: Setup, name: String, tracer: Tracer) {
    private implicit val sql: org.apache.spark.sql.SQLContext = spark.sqlContext
    import spark.implicits._
    private val mem = MemoryStream[RawLog]
    val query: StreamingQuery = MoniLogPipeline.runToMemory(mem.toDS(), s.bModels, s.bClassifier, name)
    private var seen = 0

    /** Add one micro-batch and wait until every trigger it causes is done. */
    def feed(batch: Seq[RawLog]): Unit = {
      tracer.span("stream.addData")(mem.addData(batch))
      tracer.span("stream.processAllAvailable")(query.processAllAvailable())
    }

    /** Reports the sink received since the previous call. */
    def newReports(): Vector[AnomalyReport] = {
      val all = spark.table(name).as[AnomalyReport].collect()
      val fresh = all.drop(seen).toVector
      seen = all.length
      fresh
    }

    def progress: Seq[StreamingQueryProgress] =
      query.recentProgress.toSeq.groupBy(_.batchId).values.map(_.last).toSeq.sortBy(_.batchId)

    def stop(): Unit = { query.stop(); spark.sql(s"DROP VIEW IF EXISTS $name") }
  }

  /** Event-time flush: a line far past the fed data closes every session. */
  def flushLine(last: Timestamp): RawLog =
    RawLog(new Timestamp(last.getTime + 3600L * 1000L), "flush", "flush", "flush")

  // ------------------------------------------------------------------
  // one run
  // ------------------------------------------------------------------

  def run(spark: SparkSession, w: Workload, seed: Long, seconds: Double, trace: Boolean,
          sz: Sizes = Full, log: String => Unit = Console.err.println): Result = {
    val classifier = trainedClassifier()
    val bClassifier = MoniLog.broadcastClassifier(spark, classifier)

    // Set-up, several rounds; the median round is `setup_s`. The first round
    // is the cold one (class loading, JIT), so with three rounds the median
    // is a warm round.
    var setup: Setup = null
    val setupMs = (1 to sz.setupRounds).map { round =>
      if (setup != null) setup.release()
      val (_, ms) = Stats.timeMs {
        val (lines, history) = generate(spark, w, seed, sz)
        val models = MoniLog.train(spark, history)
        setup = new Setup(lines, history, models, MoniLog.broadcastModels(spark, models), bClassifier)
        // Warm-up: one batch pipeline run warms parse, detect and classify for
        // the serving workloads; training is retrain's operation, so it is
        // warm already.
        if (w != Retrain) runBatch(setup)
      }
      log(f"[perfbench] set-up round $round: $ms%.0f ms")
      ms
    }

    // The checker's view of the input: labelled lines in event-time order.
    val lines = setup.lines.collect().sortBy(l => (l.ts.getTime, l.lineId))
    val anomalous = mutable.Map.empty[(String, String), Boolean]
    lines.foreach(l => anomalous((l.source, l.sessionId)) = l.sessionLabel != "normal")
    val fingerprint = lines.iterator.map(l => l.message.hashCode.toLong).foldLeft(17L)(_ * 31 + _)

    val tracer   = new Tracer
    val opMs     = mutable.ArrayBuffer.empty[Double]
    val tracedMs = mutable.ArrayBuffer.empty[Double]
    var attempted = 0
    var failed    = 0
    var linesDone = 0L
    var detection = Metrics.PRF(0, 0, 0, 0)
    var streamProgress = Seq.empty[StreamingQueryProgress]
    var streamBatches  = 0
    var gcMs      = 0L
    val failures  = mutable.ArrayBuffer.empty[String]

    // Tracing is switched on for every other operation of a traced run, so
    // the traced/untraced ratio is measured on the same process and input.
    def timed[A](i: Int)(f: => A): A = {
      val on = trace && i % 2 == 1
      tracer.on = on
      if (on) tracer.newRun()
      val gc0 = Jvm.gcMs
      val (a, ms) = Stats.timeMs(tracer.span(s"${w.name}.op")(f))
      gcMs += Jvm.gcMs - gc0
      if (on) tracedMs += ms else opMs += ms
      tracer.on = false
      a
    }
    def keepGoing(t0: Long, ops: Int): Boolean =
      ops < sz.minOps * (if (trace) 2 else 1) || (System.nanoTime() - t0) / 1e9 < seconds
    // The reference run doubles as the single-thread baseline.
    var refLines = 0
    var refMs    = 0.0
    def reference(in: Array[Line]): Vector[AnomalyReport] = {
      val (r, ms) = Stats.timeMs(Reference.reports(setup.models, classifier, in.map(_.raw)))
      refLines = in.length; refMs = ms
      r
    }

    w match {
      case BatchClean | BatchUnstable =>
        val expected = reference(lines)
        // Each set-up round ran the pipeline once; the JIT keeps speeding it
        // up for a few more runs.
        (1 to sz.warmOps).foreach(_ => runBatch(setup))
        val t0 = System.nanoTime()
        var i = 0
        while (keepGoing(t0, i)) {
          attempted += 1
          try {
            val got = timed(i) {
              val ds = tracer.span("stream.pipeline")(
                MoniLogPipeline.pipeline(setup.serving, setup.bModels, setup.bClassifier))
              Reference.canonical(tracer.span("stream.collect")(ds.collect()))
            }
            if (got != expected) { failed += 1; failures += s"op $i: ${diff(got, expected)}" }
            else detection = Reference.sessionScore(got, anomalous)
            linesDone += lines.length
          } catch { case e: Exception => failed += 1; failures += s"op $i: $e" }
          i += 1
        }

      case StreamClean =>
        val sr = new StreamRun(spark, setup, "perfbench_stream_clean", tracer)
        val emitted = mutable.ArrayBuffer.empty[Vector[AnomalyReport]]
        var fed = 0
        def feedNext(i: Int): Unit = {
          val batch = lines.slice(fed, fed + sz.streamBatch).map(_.raw).toSeq
          attempted += 1
          try {
            timed(i)(sr.feed(batch))
            linesDone += batch.size
            emitted += sr.newReports()
          } catch {
            case e: Exception => failed += 1; failures += s"batch ${emitted.size}: $e"; emitted += Vector.empty
          }
          fed += batch.size
        }
        try {
          val t0 = System.nanoTime()
          while (keepGoing(t0, streamBatches) && fed < lines.length) {
            feedNext(streamBatches)
            streamBatches += 1
          }
          attempted += 1
          try {
            sr.feed(Seq(flushLine(lines(fed - 1).ts)))
            emitted += sr.newReports()
          } catch { case e: Exception => failed += 1; failures += s"flush: $e" }
          streamProgress = sr.progress
        } finally sr.stop()
        val fedLines = lines.take(fed)
        val expected = reference(fedLines)
        val expectedSet = expected.toSet
        emitted.init.zipWithIndex.foreach { case (rs, b) =>
          if (!rs.forall(expectedSet)) { failed += 1; failures += s"batch $b emitted reports outside the reference" }
        }
        val got = Reference.canonical(emitted.flatten)
        if (got != expected) { failed += 1; failures += s"after flush: ${diff(got, expected)}" }
        val fedKeys = fedLines.iterator.map(l => (l.source, l.sessionId)).toSet
        val fedAnomalous = anomalous.filter { case (k, _) => fedKeys(k) }
        detection = Reference.sessionScore(got, fedAnomalous)

      case Retrain =>
        val check        = lines.map(_.raw)
        val expected     = reference(lines)
        val historyLines = setup.history.count()
        val t0 = System.nanoTime()
        var i = 0
        while (keepGoing(t0, i)) {
          attempted += 1
          try {
            val models = timed(i)(tracer.span("core.train")(MoniLog.train(spark, setup.history)))
            val got = Reference.reports(models, classifier, check)
            if (got != expected) { failed += 1; failures += s"op $i: ${diff(got, expected)}" }
            else detection = Reference.sessionScore(got, anomalous)
            linesDone += historyLines
          } catch { case e: Exception => failed += 1; failures += s"op $i: $e" }
          i += 1
        }
    }
    val heapMb = Jvm.retainedHeapMb()
    failures.take(5).foreach(m => log(s"[perfbench] FAILED $m"))

    // Once per run: per-source line and session counts from `sequence`
    // against the DuckDB oracle, over the first lines of the input.
    attempted += 1
    val (_, oracleMs) = Stats.timeMs {
      try oracleCheck(spark, setup.bModels, lines.take(sz.oracleLines).map(_.raw).toSeq)
      catch { case e: Exception => failed += 1; log(s"[perfbench] FAILED oracle: ${e.getMessage}") }
    }
    log(f"[perfbench] oracle check: $oracleMs%.0f ms")

    // Throughput at the median operation: one slow operation (a collection,
    // a busy neighbour) moves it no more than it moves op_ms_p50.
    val untraced = if (opMs.nonEmpty) opMs.toSeq else tracedMs.toSeq
    val opP50    = Stats.median(untraced)
    val endToEnd = Seq(
      Metric("lines_per_s", linesDone.toDouble / (opMs.size + tracedMs.size) * 1000.0 / opP50, "lines/s"),
      Metric("op_ms_p50", opP50, "ms"),
      Metric("session_f1", detection.f1, "ratio"),
      Metric("setup_s", Stats.median(setupMs) / 1000.0, "s"),
      Metric("heap_retained_mb", heapMb, "MB"),
    )
    log(s"[perfbench] ${w.name}: op ms ${opMs.map(m => f"$m%.0f").mkString(" ")}; " +
        s"traced op ms ${tracedMs.map(m => f"$m%.0f").mkString(" ")}; attempted=$attempted failed=$failed; " +
        s"sessions $detection (tp=${detection.tp} fp=${detection.fp} fn=${detection.fn})")

    val perLayer =
      if (!trace) Nil
      else {
        tracer.on = true
        tracer.newRun()
        val ctx = new Layers.Context(spark, w, setup, classifier, lines, tracer, sz)
        val timedStream = if (w == StreamClean) Some((streamProgress, streamBatches + 1)) else None
        Layers.measure(ctx, timedStream) ++ Seq(
          Metric("baseline.single_thread_lines_per_s", refLines * 1000.0 / refMs, "lines/s"),
          Metric("jvm.gc_ms", gcMs.toDouble, "ms"),
          Metric("trace.overhead_frac",
                 if (tracedMs.isEmpty || opMs.isEmpty) 0.0
                 else Stats.median(tracedMs) / Stats.median(opMs) - 1.0, "ratio"),
        )
      }
    if (trace) tracer.writeJsonl(java.nio.file.Paths.get(".bench_build", "traces", s"${w.name}-seed$seed.jsonl"))
    setup.release()
    Result(attempted, failed, endToEnd, perLayer, fingerprint)
  }

  private def diff(got: Vector[AnomalyReport], expected: Vector[AnomalyReport]): String = {
    val g = got.toSet; val e = expected.toSet
    s"${got.size} reports vs ${expected.size} expected; " +
      s"unexpected ${got.filterNot(e).take(2)}; missing ${expected.filterNot(g).take(2)}"
  }

  /** Per-source line and session counts of `sequence` must equal DuckDB's
    * gap-based sessionisation of the same lines.
    */
  def oracleCheck(spark: SparkSession, models: Broadcast[Models], raws: Seq[RawLog]): Unit = {
    import spark.implicits._
    val raw  = raws.toDS()
    val seqs = MoniLogPipeline.sequence(MoniLogPipeline.parseStream(raw, models))
    val counts = seqs.groupBy(col("source"))
      .agg(sum(size(col("events"))).cast("long") as "lines", count(lit(1)) as "sessions")
    Oracle.assertEquivalent(
      counts,
      """WITH e AS (SELECT source, sessionId, CAST(ts AS TIMESTAMP) AS t FROM raw),
        |     g AS (SELECT source, t, lag(t) OVER (PARTITION BY source, sessionId ORDER BY t) AS prev FROM e)
        |SELECT source, count(*) AS lines,
        |       CAST(sum(CASE WHEN prev IS NULL OR t - prev > INTERVAL 5 SECOND THEN 1 ELSE 0 END) AS BIGINT) AS sessions
        |FROM g GROUP BY source""".stripMargin,
      "raw" -> raw.select(col("source"), col("sessionId"), col("ts")))
  }
}
