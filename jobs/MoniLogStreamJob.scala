package repro.jobs

import java.nio.file.Files

import org.apache.spark.sql.functions._

import repro.classify.PoolClassifier
import repro.core.MoniLog
import repro.logs.LogSynth
import repro.stream.MoniLogPipeline
import repro.stream.MoniLogPipeline.RawLog

/** End-to-end MoniLog streaming demo (Figure 1 live):
  *
  *   1. trains the model bundle on an anomaly-free synthetic history;
  *   2. writes a labeled multi-source corpus to a spool directory as
  *      JSON (the "log shippers");
  *   3. runs the Structured Streaming pipeline over the file source and
  *      prints classified anomaly reports to the console as the
  *      watermark closes each window.
  *
  * `spark-submit --class repro.jobs.MoniLogStreamJob repro-jobs.jar [nSessions]`
  */
object MoniLogStreamJob {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("monilog-stream")
    import spark.implicits._

    val n = Jobs.arg(args, 0, 2000)
    val history = LogSynth.cloud(spark, n, anomalyRate = 0.0, seed = 1L).toDF()
    val models  = MoniLog.train(spark, history)
    Console.err.println(s"[monilog] trained: ${models.templates.size} templates")

    val spool = Files.createTempDirectory("monilog-stream").toString + "/spool"
    LogSynth.cloud(spark, n, anomalyRate = 0.05, seed = 2L).toDF()
      .select($"ts", $"source", $"sessionId", $"message")
      .coalesce(4)
      .write.json(spool)
    Console.err.println(s"[monilog] spool directory: $spool")

    // The query keeps session-window state per shuffle partition and
    // commits every partition on every trigger: one partition per core,
    // not Spark's default of 200.
    spark.conf.set("spark.sql.shuffle.partitions", spark.sparkContext.defaultParallelism.toLong)
    val raw = spark.readStream
      .schema("ts TIMESTAMP, source STRING, sessionId STRING, message STRING")
      .json(spool)
      .as[RawLog]

    val reports = MoniLogPipeline.pipeline(
      raw,
      MoniLog.broadcastModels(spark, models),
      MoniLog.broadcastClassifier(spark, new PoolClassifier()))

    val query = reports
      .select($"windowStart", $"source", $"sessionId", $"kind", $"score",
              $"pool", $"criticality")
      .writeStream
      .format("console")
      .outputMode("append")
      .option("truncate", value = false)
      .start()
    query.processAllAvailable()
    query.stop()
    spark.stop()
  }
}
