package repro.jobs

import java.nio.file.{Files, Paths, StandardCopyOption}
import java.time.Instant

import org.apache.commons.io.FileUtils
import org.apache.spark.sql.Encoders
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
  *      JSON (the "log shippers"), a temporary directory the job deletes
  *      when it ends, also on failure;
  *   3. runs the Structured Streaming pipeline over the file source and
  *      prints classified anomaly reports to the console as each
  *      session's event-time timer fires (the watermark passes its newest
  *      event plus the session gap);
  *   4. once the spool is read, adds one end-of-input line (source and
  *      session `flush`) an hour past the spool's last event. It moves the
  *      watermark past every session still open, so those are reported
  *      too; only the sentinel's own session stays in state.
  *
  * `spark-submit --class repro.jobs.MoniLogStreamJob repro-jobs.jar [nSessions]`
  */
object MoniLogStreamJob {
  def main(args: Array[String]): Unit = {
    val spark = MoniLog.session("monilog-stream", Jobs.master)
    import spark.implicits._

    val n = Jobs.arg(args, 0, 2000)
    val history = LogSynth.cloud(spark, n, anomalyRate = 0.0, seed = 1L).toDF()
    val models  = MoniLog.train(spark, history)
    Console.err.println(s"[monilog] trained: ${models.templates.size} templates")

    val dir = Files.createTempDirectory("monilog-stream")
    try {
      val spool = dir.resolve("spool").toString
      LogSynth.cloud(spark, n, anomalyRate = 0.05, seed = 2L).toDF()
        .select($"ts", $"source", $"sessionId", $"message")
        .coalesce(4)
        .write.json(spool)
      Console.err.println(s"[monilog] spool directory: $spool")

      val schema = Encoders.product[RawLog].schema
      val raw = spark.readStream
        .schema(schema)
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

      // End of input. The file source skips dot-prefixed names, so the
      // sentinel is written under one and renamed into view whole.
      val last = spark.read.schema(schema).json(spool).agg(max($"ts")).head().getTimestamp(0)
      val line = s"""{"ts":"${Instant.ofEpochMilli(last.getTime + 3600L * 1000L)}",""" +
        """"source":"flush","sessionId":"flush","message":"flush"}"""
      val tmp = Files.writeString(Paths.get(spool, ".end-of-input.json"), line + "\n")
      Files.move(tmp, Paths.get(spool, "end-of-input.json"), StandardCopyOption.ATOMIC_MOVE)
      query.processAllAvailable()
      query.stop()
    } finally FileUtils.deleteDirectory(dir.toFile)
    spark.stop()
  }
}
