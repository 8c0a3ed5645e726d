package repro.logs

import java.sql.Timestamp

import org.apache.spark.sql.{Dataset, SparkSession}
import scala.util.Random

import repro.logs.LogModel._

/** Distributed, deterministic generator for the multi-source log corpus.
  *
  * Sessions are independent, so generation parallelizes as
  * `spark.range(nSessions).flatMap(genSession)`; each session's RNG is
  * seeded from (seed, sessionId) so the corpus is identical across runs
  * and partitionings — required for the DuckDB oracle and for comparing
  * parsers on the very same input.
  *
  * Anomaly injection follows the paper's two categories (§III):
  *   - sequential: the event sequence deviates from the flow (an error
  *     template is emitted, an event is dropped/swapped, or the session
  *     terminates early);
  *   - quantitative: the sequence is normal but one numeric variable is
  *     drawn far outside its distribution.
  */
object LogSynth {

  /** Generation parameters. */
  final case class SynthConfig(
      sources: Seq[String],
      nSessions: Long,
      anomalyRate: Double = 0.03,
      quantShare: Double = 0.4,
      payloadProb: Double = 0.7,
      seed: Long = 42L,
  )

  // Fixed times (no wall clock) keep runs reproducible; sessions start
  // SessionStartGapMs apart, so they overlap and interleave the stream.
  private val BaseEpochMs       = 1700000000000L
  private val SessionStartGapMs = 120L
  private val LineGapMeanMs     = 60L

  /** Line i of session s has lineId `s * LineIdStride + i`, so ids follow
    * session order.
    */
  val LineIdStride = 64L

  /** Generate the corpus as a Dataset of fully labeled lines. */
  def generate(spark: SparkSession, cfg: SynthConfig): Dataset[LogLine] = {
    import spark.implicits._
    val c = cfg
    spark.range(c.nSessions).flatMap(sid => genSession(sid, c))
  }

  /** Single-source HDFS-shaped corpus (detector-comparison experiments). */
  def hdfsLike(spark: SparkSession, nSessions: Long, anomalyRate: Double = 0.03,
               quantShare: Double = 0.0, seed: Long = 42L): Dataset[LogLine] =
    generate(spark, SynthConfig(Seq("hdfs"), nSessions, anomalyRate = anomalyRate,
                                quantShare = quantShare, payloadProb = 0.0, seed = seed))

  /** Four-source interleaved cloud corpus (the paper's environment). */
  def cloud(spark: SparkSession, nSessions: Long, anomalyRate: Double = 0.03,
            seed: Long = 42L, payloadProb: Double = 0.7): Dataset[LogLine] =
    generate(spark, SynthConfig(Seq("network", "storage", "compute", "auth"),
                                nSessions, anomalyRate = anomalyRate, seed = seed,
                                payloadProb = payloadProb))

  // ----------------------------------------------------------------
  // per-session generation (pure, deterministic)
  // ----------------------------------------------------------------

  /** Generate all lines of one session. Exposed for direct unit testing. */
  def genSession(sessionId: Long, c: SynthConfig): Seq[LogLine] = {
    val rng    = new Random(c.seed ^ (sessionId * 0x9E3779B97F4A7C15L))
    val source = c.sources(((sessionId % c.sources.size) + c.sources.size).toInt % c.sources.size)
    val flow   = Flows.flowFor(source)

    // 1. the normal template sequence for this session
    val normalSeq: Vector[Int] = flow.steps.flatMap {
      case Fixed(tid)            => Vector(tid)
      case Repeat(tid, min, max) => Vector.fill(min + rng.nextInt(max - min + 1))(tid)
    }.toVector

    // 2. label + sequence mutation
    val isAnomalous = rng.nextDouble() < c.anomalyRate
    val label =
      if (!isAnomalous) Normal
      else if (rng.nextDouble() < c.quantShare) Quantitative
      else Sequential

    // (templateIds, index of the injected anomalous line or -1). Mutations
    // are retried until the result could NOT have come from the normal
    // flow — otherwise the "anomaly" would be undetectable by definition
    // (e.g. swapping two identical repeat events). Injecting an
    // error-branch template is the one mutation that always deviates.
    def injectError(): (Vector[Int], Int) = {
      val pos = 1 + rng.nextInt(normalSeq.size - 1)
      val err = flow.errorTemplateIds(rng.nextInt(flow.errorTemplateIds.size))
      (normalSeq.patch(pos, Vector(err), 0), pos)
    }
    def mutate(): (Vector[Int], Int) = rng.nextInt(4) match {
      case 0 => injectError()
      case 1 => // drop a required event
        val pos = rng.nextInt(normalSeq.size - 1)
        (normalSeq.patch(pos, Nil, 1), math.min(pos, normalSeq.size - 2))
      case 2 => // swap two adjacent events
        val pos = rng.nextInt(normalSeq.size - 1)
        (normalSeq.updated(pos, normalSeq(pos + 1)).updated(pos + 1, normalSeq(pos)), pos)
      case _ => // premature termination
        val keep = 1 + rng.nextInt(normalSeq.size - 1)
        (normalSeq.take(keep), keep - 1)
    }
    val (tids, seqAnomIdx): (Vector[Int], Int) = label match {
      case Sequential =>
        Iterator.continually(mutate()).take(12)
          .find { case (s, _) => !Flows.isValidFlow(source, s) }
          .getOrElse(injectError())
      case _ => (normalSeq, -1)
    }

    // 3. quantitative anomaly target: a line whose template has a numeric slot
    val quantIdx: Int =
      if (label != Quantitative) -1
      else {
        val numeric = tids.indices.filter(i => Flows.allTemplates(tids(i)).toks.exists(_.isInstanceOf[NumVar]))
        if (numeric.isEmpty) -1 else numeric(rng.nextInt(numeric.size))
      }
    val effLabel = if (label == Quantitative && quantIdx < 0) Normal else label

    // 4. materialize lines
    val startMs = BaseEpochMs + sessionId * SessionStartGapMs + rng.nextInt(50)
    var ts      = startMs
    tids.zipWithIndex.map { case (tid, i) =>
      ts += 10 + rng.nextInt((2 * LineGapMeanMs).toInt)
      val td = Flows.allTemplates(tid)
      val quantHere = i == quantIdx
      val (coreMsg, vars) = instantiate(td, rng, quantHere)
      val hasPayload = td.payloadKeys.nonEmpty && rng.nextDouble() < c.payloadProb
      LogLine(
        lineId = sessionId * LineIdStride + i,
        ts = new Timestamp(ts),
        source = source,
        sessionId = s"$source-$sessionId",
        seqIndex = i,
        message = if (hasPayload) s"$coreMsg ${renderPayload(td.payloadKeys, rng)}" else coreMsg,
        templateId = tid,
        hasPayload = hasPayload,
        variables = vars,
        anomalous = quantHere || i == seqAnomIdx,
        sessionLabel = effLabel,
        unstable = false,
      )
    }
  }

  /** Instantiate a template: draw every variable, return (message, vars).
    * When `quantAnomaly`, the first numeric slot is scaled 20–100×.
    */
  def instantiate(td: TemplateDef, rng: Random, quantAnomaly: Boolean): (String, Seq[String]) = {
    var firstNum = true
    val rendered = td.toks.map {
      case Static(s) => (s, None)
      case NumVar(mean, std, integer) =>
        var v = math.max(0.0, mean + std * rng.nextGaussian())
        if (quantAnomaly && firstNum) { v = mean * (20 + 80 * rng.nextDouble()); firstNum = false }
        val s = if (integer) math.round(v).toString else f"$v%.2f"
        (s, Some(s))
      case CatVar(pool) =>
        val s = pool(rng.nextInt(pool.size))
        (s, Some(s))
    }
    (rendered.map(_._1).mkString(" "), rendered.flatMap(_._2))
  }

  /** Render a flat JSON payload, fixed key order, random short values. */
  def renderPayload(keys: Seq[String], rng: Random): String =
    keys.map(k => s""""$k": "${k.take(3)}-${rng.nextInt(500)}"""").mkString("{", ", ", "}")
}
