package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._

import repro.classify.PoolClassifier
import repro.detect.{NGramModel, QuantDetector, SemanticMatcher}
import repro.parse.{DistributedDrain, Drain, Preprocess}
import repro.stream.MoniLogPipeline
import repro.stream.MoniLogPipeline.{Models, RawLog}

/** MoniLog facade: offline training on anomaly-free history, producing
  * the frozen model bundle the streaming pipeline broadcasts.
  *
  * Training is itself distributed (the paper's §II scalability
  * requirement): templates are mined with [[DistributedDrain.templates]],
  * which builds and keeps no per-line mining output, and the history is
  * then structured with the serving pipeline's own
  * [[MoniLogPipeline.parseStream]] → [[MoniLogPipeline.sequence]], so the
  * sequence and value models are fitted on sequences of exactly the shape
  * they later score. The fit itself is not distributed yet: every history
  * sequence is collected to the driver, which fits both models there.
  */
object MoniLog {

  /** The one SparkSession recipe: the jobs, the tests and the benchmark
    * harness all run on a session built here.
    *
    * Broadcast joins are off, so the one join in any MoniLog query (the
    * benchmark's step-by-step training copy) shuffles both sides. Every
    * shuffle and stream state store that takes its size from
    * `spark.sql.shuffle.partitions` gets one partition per core: the
    * streaming sessions' `flatMapGroupsWithState` state is committed per
    * partition on every trigger, so its cost grows with the partition
    * count, not with the rows.
    */
  def session(appName: String, master: String): SparkSession = {
    val spark = SparkSession.builder()
      .appName(appName)
      .master(master)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // defaultParallelism is known only once the context is up
    spark.conf.set("spark.sql.shuffle.partitions", spark.sparkContext.defaultParallelism.toLong)
    spark
  }

  /** The deployed hyper-parameters: every [[train]] uses these values. */
  final case class TrainConfig(
      depth: Int = 4,
      simThreshold: Double = 0.5,
      ngramOrder: Int = 2,
      topG: Int = 9,
      zThreshold: Double = 6.0,
  )

  /** Train the full model bundle from an anomaly-free history.
    *
    * @param history columns `ts`, `source`, `sessionId`, `message` (other
    *                columns, such as `lineId` and the ground truth, are
    *                ignored — training is unsupervised)
    */
  def train(spark: SparkSession, history: DataFrame): Models = {
    import spark.implicits._
    val cfg = TrainConfig()

    // 1. mine templates distributively, over payload-stripped messages; a
    // null message has no text to mine
    val core = history.select(col("message").cast("string")).where(col("message").isNotNull)
      .as[String].map(Preprocess.extractStructured(_)._1).toDF("message")
    val mined = DistributedDrain.templates(core, cfg.depth, cfg.simThreshold)

    // 2. frozen matcher tree: replay the mined templates into a fresh
    // Drain. Replay may merge further (two mined templates can be mutually
    // similar); the history is re-parsed below, so lines get frozen ids.
    val frozen = new Drain(cfg.depth, cfg.simThreshold)
    mined.toSeq.sortBy(_._1).foreach { case (_, toks) => frozen.parseTokens(toks) }
    val base = Models(
      parser = frozen,
      matcher = new SemanticMatcher(frozen.templates),
      sequential = new NGramModel(cfg.ngramOrder, cfg.topG),
      quantitative = new QuantDetector(cfg.zThreshold),
    )

    // 3. structure the history exactly as serving does
    val bBase = broadcastModels(spark, base)
    val raw = history.select(col("ts"), col("source"), col("sessionId"),
                             col("message").cast("string") as "message").as[RawLog]
    val sequences = MoniLogPipeline.sequence(MoniLogPipeline.parseStream(raw, bBase))
      .collect().map(_.events)
    bBase.destroy()

    // 4. fit the n-gram on the collapsed order detectOne scores, and the
    // value model on every event (a duplicate carries the same values)
    base.copy(
      sequential = new NGramModel(cfg.ngramOrder, cfg.topG)
        .fit(sequences.iterator.map(s => MoniLogPipeline.collapse(s).map(_.templateId))),
      quantitative = new QuantDetector(cfg.zThreshold).fit(sequences.iterator.flatten.collect {
        case e if e.templateId != MoniLogPipeline.NovelId => (e.templateId, e.vars)
      }),
    )
  }

  /** Broadcast helpers for driving the pipeline. */
  def broadcastModels(spark: SparkSession, models: Models): Broadcast[Models] =
    spark.sparkContext.broadcast(models)

  def broadcastClassifier(spark: SparkSession,
                          classifier: PoolClassifier): Broadcast[PoolClassifier] =
    spark.sparkContext.broadcast(classifier)

  /** Convenience: batch-mode end-to-end run (tests, T-tables). */
  def detectBatch(spark: SparkSession, raw: Dataset[RawLog],
                  models: Models): Dataset[MoniLogPipeline.AnomalyReport] =
    MoniLogPipeline.pipeline(raw, broadcastModels(spark, models),
                             broadcastClassifier(spark, new PoolClassifier()))
}
