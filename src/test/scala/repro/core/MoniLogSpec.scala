package repro.core

import org.apache.spark.sql.functions._

import repro.SparkSpec
import repro.core.Metrics.PRF
import repro.logs.LogSynth
import repro.parse.Preprocess
import repro.stream.MoniLogPipeline.RawLog

class MoniLogSpec extends SparkSpec {

  import spark.implicits._

  // anomaly-free history for training, labeled corpus for testing
  private lazy val history = LogSynth.cloud(spark, 600, anomalyRate = 0.0,
                                            seed = 50L, payloadProb = 0.3).toDF().cache()
  private lazy val labeled = LogSynth.cloud(spark, 400, anomalyRate = 0.08,
                                            seed = 51L, payloadProb = 0.3).toDF().cache()
  private lazy val models = MoniLog.train(spark, history)

  test("training mines the full template vocabulary") {
    val nTrue = history.select("templateId").distinct().count()
    assert(models.templates.size == nTrue)
  }

  test("trained parser matches held-out normal lines exactly") {
    val misses = labeled.where(col("sessionLabel") === "normal")
      .select("message").as[String].collect()
      .count(m => models.parser.matchTokens(
        Preprocess.tokenize(Preprocess.extractStructured(m)._1)).isEmpty)
    assert(misses == 0)
  }

  test("sequence model accepts held-out normal sessions") {
    val normals = labeled.where(col("sessionLabel") === "normal")
    val raws = normals.select($"ts", $"source", $"sessionId", $"message").as[RawLog]
    val reports = MoniLog.detectBatch(spark, raws, models).collect()
    val flagged = reports.map(_.sessionId).toSet
    val total = normals.select("sessionId").distinct().count()
    assert(flagged.size.toDouble / total < 0.05,
           s"${flagged.size} of $total normal sessions flagged")
  }

  test("end-to-end detection finds most injected anomalies with high precision") {
    val raws = labeled.select($"ts", $"source", $"sessionId", $"message").as[RawLog]
    val reports = MoniLog.detectBatch(spark, raws, models).collect()
    val flagged = reports.map(_.sessionId).toSet
    val truth = labeled.select("sessionId", "sessionLabel").distinct().collect()
      .map(r => r.getString(0) -> (r.getString(1) != "normal")).toMap
    val prf = Metrics.score(truth.toSeq.map { case (sid, isAnom) => (flagged(sid), isAnom) })
    assert(prf.recall > 0.6, prf.toString)
    assert(prf.precision > 0.6, prf.toString)
  }

  test("quantitative anomalies are reported with the quantitative kind") {
    val quantSessions = labeled.where(col("sessionLabel") === "quantitative")
      .select("sessionId").distinct().as[String].collect().toSet
    val raws = labeled.select($"ts", $"source", $"sessionId", $"message").as[RawLog]
    val reports = MoniLog.detectBatch(spark, raws, models).collect()
    val quantReports = reports.filter(r => quantSessions(r.sessionId))
    assert(quantReports.nonEmpty)
    assert(quantReports.count(_.kind == "quantitative") >
      quantReports.length / 2)
  }

  test("training is deterministic") {
    val m2 = MoniLog.train(spark, history)
    assert(m2.templates == models.templates)
  }

  test("training leaves no cached data behind") {
    history.count() // the suite's own cached history, materialised first
    def cached = spark.sparkContext.getPersistentRDDs.size
    val before = cached
    MoniLog.train(spark, history)
    assert(cached == before)
  }

  test("a null history message is skipped by mining") {
    val small = LogSynth.cloud(spark, 100, anomalyRate = 0.0, seed = 52L, payloadProb = 0.3).toDF()
    val withNull = small.withColumn("message",
      when(col("lineId") === 0L, lit(null).cast("string")).otherwise(col("message")))
    val trained = MoniLog.train(spark, withNull)
    assert(trained.templates == MoniLog.train(spark, small.where(col("lineId") =!= 0L)).templates)
  }

  test("a normal session that pauses mid-flow is not reported") {
    // One session in four pauses 10 s after its 3rd event, in the training
    // history and the held-out corpus alike. Serving cuts such a session at
    // its 5 s gap, so training must have seen it cut the same way.
    val isPaused = pmod(hash(col("sessionId")), lit(4)) === 0
    def corpus(n: Long, seed: Long) =
      LogSynth.cloud(spark, n, anomalyRate = 0.0, seed = seed, payloadProb = 0.3).toDF()
        .withColumn("ts", when(isPaused && col("seqIndex") >= 3,
                               col("ts") + expr("INTERVAL 10 SECONDS")).otherwise(col("ts")))
    val trained = MoniLog.train(spark, corpus(600, 50L))
    val heldOut = corpus(400, 51L)
    val raws = heldOut.select($"ts", $"source", $"sessionId", $"message").as[RawLog]
    val flagged = MoniLog.detectBatch(spark, raws, trained).collect().map(_.sessionId).toSet
    val (paused, unpaused) = heldOut.select(col("sessionId"), isPaused).distinct()
      .as[(String, Boolean)].collect().partition(_._2)
    val pausedFlagged = paused.count(p => flagged(p._1))
    val unpausedFlagged = unpaused.count(p => flagged(p._1))
    assert(pausedFlagged < 0.2 * paused.length, s"$pausedFlagged of ${paused.length} paused")
    assert(unpausedFlagged < 0.05 * unpaused.length,
           s"$unpausedFlagged of ${unpaused.length} unpaused")
  }

  test("score helper computes the paper's metrics") {
    val prf = PRF(tp = 8, fp = 2, fn = 2, tn = 88)
    assert(math.abs(prf.precision - 0.8) < 1e-9)
    assert(math.abs(prf.recall - 0.8) < 1e-9)
    assert(math.abs(prf.f1 - 0.8) < 1e-9)
  }
}
