package repro.perfbench

import org.apache.spark.sql.{DataFrame, Dataset, Observation, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.streaming.StreamingQueryProgress

import repro.classify.PoolClassifier
import repro.core.MoniLog
import repro.detect.{EventVectorizer, NGramModel, QuantDetector}
import repro.parse.{DistributedDrain, Drain, Preprocess, TemplateOps}
import repro.stream.MoniLogPipeline
import repro.stream.MoniLogPipeline.{NovelId, RawLog}

import Bench.{Line, Metric, Setup, Sizes, Workload}
import Stats.timeMs

/** Per-layer metrics of a traced run. Every probe times calls into a
  * layer's public functions on the workload's own input, so each metric
  * exists on every workload; the layers a workload's timed operation runs
  * through are the ones its end-to-end metrics respond to.
  */
object Layers {

  final class Context(
      val spark: SparkSession,
      val workload: Workload,
      val setup: Setup,
      val classifier: PoolClassifier,
      val lines: Array[Line],        // the workload's serving lines, event-time order
      val tracer: Tracer,
      val sizes: Sizes,
  )

  /** All per-layer metrics except the ones the timed loop itself yields. */
  def measure(c: Context, timedStream: Option[(Seq[StreamingQueryProgress], Int)]): Seq[Metric] = {
    val (progress, batches) = timedStream.getOrElse(streamProbe(c))
    kernels(c) ++ stages(c) ++ streamEngine(progress, batches) ++ training(c)
  }

  /** One micro-batch of the workload's lines plus the flush, for the
    * workloads whose timed operation is not the stream.
    */
  def streamProbe(c: Context): (Seq[StreamingQueryProgress], Int) = {
    val sr = new Bench.StreamRun(c.spark, c.setup, s"perfbench_probe_${c.workload.name.replace('-', '_')}", c.tracer)
    try {
      val fed = c.lines.take(c.sizes.streamBatch)
      sr.feed(fed.map(_.raw).toSeq)
      sr.feed(Seq(Bench.flushLine(fed.last.ts)))
      (sr.progress, 2)
    } finally sr.stop()
  }

  /** Metrics of the stream engine, from `StreamingQueryProgress`. */
  def streamEngine(progress: Seq[StreamingQueryProgress], batchesFed: Int): Seq[Metric] = {
    def dur(p: StreamingQueryProgress, k: String): Double =
      Option(p.durationMs.get(k)).map(_.doubleValue).getOrElse(0.0)
    def ops(p: StreamingQueryProgress) = p.stateOperators.toSeq
    Seq(
      Metric("stream.triggers_per_batch", progress.size.toDouble / batchesFed.max(1), "count"),
      Metric("stream.add_batch_ms_p50", med(progress.map(dur(_, "addBatch"))), "ms"),
      Metric("stream.state_commit_ms_p50", med(progress.map(ops(_).map(_.commitTimeMs).sum.toDouble)), "ms"),
      Metric("stream.wal_commit_ms_p50", med(progress.map(dur(_, "walCommit"))), "ms"),
      Metric("stream.state_rows", progress.map(ops(_).map(_.numRowsTotal).sum).maxOption.getOrElse(0L).toDouble, "count"),
      Metric("stream.state_mem_bytes", progress.map(ops(_).map(_.memoryUsedBytes).sum).maxOption.getOrElse(0L).toDouble, "B"),
      Metric("stream.rows_dropped_by_watermark", progress.map(ops(_).map(_.numRowsDroppedByWatermark).sum).sum.toDouble, "count"),
    )
  }

  /** Passes over the probe's reports when timing the classifier. */
  val ClassifyPasses = 50

  private def med(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else Stats.median(xs)

  /** Single-thread kernel probes of parse, semantic fallback, detect and classify. */
  def kernels(c: Context): Seq[Metric] = {
    val t      = c.tracer
    val m      = c.setup.models
    val raws   = c.lines.take(c.sizes.probeLines).map(_.raw)
    val n      = raws.length.toDouble
    def extract(r: Array[RawLog]) = r.map(x => Preprocess.tokenize(Preprocess.extractStructured(x.message)._1))
    extract(raws.take(5000)) // JIT warm-up of the single-thread path

    val (toks, extractMs)  = timeMs(t.span("parse.extract")(extract(raws)))
    val (matched, matchMs) = timeMs(t.span("parse.match")(toks.map(m.parser.matchTokens)))
    val exact = toks.indices.filter(i => matched(i).isDefined)
    val (_, varsMs) = timeMs(t.span("parse.vars")(
      exact.foreach(i => TemplateOps.extractVars(m.templates(matched(i).get), toks(i)))))
    // Per-call cost of the fallback is timed over every line, so it is a
    // measured number on every workload, even where few lines reach it.
    val (sem, semMs) = timeMs(t.span("detect.semantic")(toks.map(m.matcher.mapTemplate)))
    val misses    = toks.indices.filter(i => matched(i).isEmpty)
    val recovered = misses.count(i => sem(i).isDefined)

    // Sequences of the probe lines, as the reference structures them.
    val parsed = raws.map(MoniLogPipeline.parseOne(m, _))
    val seqs   = Reference.sessions(parsed, 5000L)
    val ids    = seqs.map(_.events.map(_.templateId))
    val (_, ngramMs) = timeMs(t.span("detect.ngram")(ids.foreach(m.sequential.anomalousEvents)))
    val events = seqs.flatMap(_.events).filter(_.templateId != NovelId)
    val (_, quantMs) = timeMs(t.span("detect.quant")(
      events.foreach(e => m.quantitative.score(e.templateId, e.vars))))
    val reports = seqs.flatMap(MoniLogPipeline.detectOne(m, _))
    // The probe's own reports, classified as the pipeline classifies them;
    // a few hundred calls are too few to time, so the pass is repeated.
    val (_, classifyMs) = timeMs(t.span("classify")(
      (1 to ClassifyPasses).foreach(_ => reports.foreach(Reference.classify(c.classifier, _)))))

    Seq(
      Metric("parse.extract_us", extractMs * 1000 / n, "us"),
      Metric("parse.match_us", matchMs * 1000 / n, "us"),
      Metric("parse.vars_us", varsMs * 1000 / exact.size.max(1), "us"),
      Metric("parse.exact_frac", exact.size / n, "ratio"),
      Metric("parse.match_scaling", matchScaling(m.parser, toks), "ratio"),
      Metric("semantic.calls_frac", misses.size / n, "ratio"),
      Metric("semantic.us_per_call", semMs * 1000 / n, "us"),
      Metric("semantic.recovered_frac", if (misses.isEmpty) 0.0 else recovered.toDouble / misses.size, "ratio"),
      Metric("parse.novel_frac", (misses.size - recovered) / n, "ratio"),
      Metric("detect.ngram_us_per_seq", ngramMs * 1000 / seqs.size.max(1), "us"),
      Metric("detect.quant_us_per_event", quantMs * 1000 / events.size.max(1), "us"),
      Metric("detect.reports_frac", reports.size.toDouble / seqs.size.max(1), "ratio"),
      Metric("classify.us_per_report", classifyMs * 1000 / (ClassifyPasses * reports.size).max(1), "us"),
      Metric("classify.reports", reports.size.toDouble, "count"),
    )
  }

  /** Lines/s of frozen matching with `nproc` threads sharing one Drain,
    * over the same with one thread.
    */
  def matchScaling(parser: Drain, toks: Array[Vector[String]]): Double = {
    val threads = Runtime.getRuntime.availableProcessors
    def rate(k: Int): Double = {
      val (_, ms) = timeMs {
        val ts = (1 to k).map(_ => new Thread(() => toks.foreach(parser.matchTokens)))
        ts.foreach(_.start()); ts.foreach(_.join())
      }
      k * toks.length * 1000.0 / ms
    }
    val one  = Stats.median((1 to 3).map(_ => rate(1)))
    val many = Stats.median((1 to 3).map(_ => rate(threads)))
    many / one
  }

  /** Batch-mode cumulative cuts of the pipeline into a no-op sink, plus the
    * session-window shuffle read from the task listener. Each cut is the
    * median of two runs.
    */
  def stages(c: Context): Seq[Metric] = {
    val s  = c.setup
    val sc = c.spark.sparkContext
    def cut(name: String)(ds: => Dataset[_]): (Double, TaskCounters) = {
      val k = new TaskCounters
      sc.addSparkListener(k)
      val ms = Stats.median((1 to 2).map { _ =>
        k.sync(sc)
        k.reset()
        timeMs(c.tracer.span(name)(ds.write.format("noop").mode("overwrite").save()))._2
      })
      k.sync(sc)
      sc.removeSparkListener(k)
      (ms, k)
    }
    val parsed = () => MoniLogPipeline.parseStream(s.serving, s.bModels)
    val seqs   = () => MoniLogPipeline.sequence(parsed())
    val dets   = () => MoniLogPipeline.detect(seqs(), s.bModels)
    val (parseMs, _)       = cut("stage.parse")(parsed())
    val (sequenceMs, seqK) = cut("stage.sequence")(seqs())
    val (detectMs, _)      = cut("stage.detect")(dets())
    val (classifyMs, _)    = cut("stage.classify")(MoniLogPipeline.classify(dets(), s.bClassifier))
    // Sessions closed, through Spark's public Observation listener.
    val closed = Observation("sequence")
    seqs().observe(closed, count(lit(1)) as "sessions").write.format("noop").mode("overwrite").save()
    Seq(
      Metric("stage.parse_ms", parseMs, "ms"),
      Metric("stage.sequence_ms", sequenceMs, "ms"),
      Metric("stage.detect_ms", detectMs, "ms"),
      Metric("stage.classify_ms", classifyMs, "ms"),
      Metric("sequence.shuffle_write_bytes", seqK.shuffleWriteBytes.toDouble, "B"),
      Metric("sequence.sessions", closed.get("sessions").asInstanceOf[Long].toDouble, "count"),
    )
  }

  /** What the step-by-step copy of `MoniLog.train` fits, so a test can
    * hold it equal to the program's own training.
    */
  final class Trained(
      val templates: Map[Int, Vector[String]],
      val sequences: Array[Seq[Int]],
      val ngram: NGramModel,
      val quant: QuantDetector,
      val rows: Array[(Int, Seq[String])],
      val metrics: Seq[Metric],
  )

  def training(c: Context): Seq[Metric] = trainSteps(c.spark, c.setup.history, c.tracer).metrics

  /** `MoniLog.train`, step by step with the same public calls and settings.
    * As in `MoniLog.train`, the per-line events (the history ⋈ assignments
    * join and the re-tokenising of every line) are materialised by the
    * sequence collect, so `train.sequences_ms` includes them.
    */
  def trainSteps(spark: SparkSession, history: DataFrame, t: Tracer): Trained = {
    import spark.implicits._
    val cfg = MoniLog.TrainConfig()

    val (mined, mineMs) = timeMs(t.span("train.mine") {
      val core = history.select(col("lineId").cast("long"), col("message").cast("string"))
        .as[(Long, String)]
        .map { case (id, msg) => (id, Preprocess.extractStructured(msg)._1) }
        .toDF("lineId", "message")
      DistributedDrain.parse(core, cfg.depth, cfg.simThreshold)
    })
    val frozen = new Drain(cfg.depth, cfg.simThreshold)
    val remap = mined.templates.toSeq.sortBy(_._1).map { case (id, toks) => id -> frozen.parseTokens(toks) }.toMap
    val templates = frozen.templates
    val bRemap = spark.sparkContext.broadcast(remap)
    val bTemplates = spark.sparkContext.broadcast(templates)
    val assignments = mined.assignments
      .select(col("lineId").cast("long"), col("templateId").cast("int")).as[(Long, Int)]
      .map { case (id, tid) => (id, bRemap.value(tid)) }.toDF("lineId", "templateId")
    val events = history
      .select(col("lineId").cast("long") as "lineId", col("ts"), col("source"),
              col("sessionId"), col("message").cast("string") as "message")
      .join(assignments, "lineId")
      .select(col("ts"), col("source"), col("sessionId"), col("message"), col("templateId"))
      .as[(java.sql.Timestamp, String, String, String, Int)]
      .map { case (ts, source, sessionId, message, tid) =>
        val toks = Preprocess.tokenize(Preprocess.extractStructured(message)._1)
        (ts, source, sessionId, tid,
         bTemplates.value.get(tid).map(TemplateOps.extractVars(_, toks)).getOrElse(Nil))
      }
      .toDF("ts", "source", "sessionId", "templateId", "vars")
      .persist()

    val (sequences, seqMs) = timeMs(t.span("train.sequences")(
      EventVectorizer.bySession(events.withColumn("lineId", monotonically_increasing_id())
                                      .withColumn("sessionLabel", lit("normal")))
        .collect().map(_.events)))
    val (ngram, ngramMs) = timeMs(t.span("train.ngram_fit")(
      new NGramModel(cfg.ngramOrder, cfg.topG).fit(sequences.toSeq)))
    val ((quant, rows), quantMs) = timeMs(t.span("train.quant_fit") {
      val rows = events.select(col("templateId"), col("vars")).as[(Int, Seq[String])].collect()
      (new QuantDetector(cfg.zThreshold).fit(rows), rows)
    })
    events.unpersist()
    mined.assignments.unpersist()
    new Trained(templates, sequences, ngram, quant, rows, Seq(
      Metric("train.mine_ms", mineMs, "ms"),
      Metric("train.sequences_ms", seqMs, "ms"),
      Metric("train.ngram_fit_ms", ngramMs, "ms"),
      Metric("train.quant_fit_ms", quantMs, "ms"),
      Metric("train.collected_rows", (sequences.length + rows.length).toDouble, "count"),
    ))
  }
}
