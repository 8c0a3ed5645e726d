package repro.parse

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._

/** Distributed tree-based log parsing — the paper's planned contribution
  * (§IV: "Drain … is not distributable. We plan to provide a distributed
  * version of research tree-based log parsing method").
  *
  * Two-phase dataflow:
  *
  *   1. partition-local mining: each partition runs an independent Drain
  *      over its lines (`mapPartitions`), emitting per-line local group
  *      assignments plus, at partition end, the partition's mined
  *      templates;
  *   2. driver-side merge: every local template is replayed through a
  *      merge Drain (wildcards descend the `<*>` path), yielding a global
  *      id per (partition, local id); the mapping is broadcast and local
  *      assignments are remapped in a second narrow pass.
  *
  * The result is deterministic given the input partitioning and scales
  * with the number of partitions, while producing the same *kind* of
  * templates single-node Drain mines — T4 measures the accuracy gap and
  * T8 the speed-up.
  */
object DistributedDrain {

  /** Parse result: per-line assignment plus the merged template table. */
  final case class Result(assignments: DataFrame, templates: Map[Int, Vector[String]])

  private final case class LocalTemplate(partition: Int, localId: Int, tokens: Vector[String])

  /** Parse `lines` (columns `lineId: Long`, `message: String`).
    *
    * @return assignments DataFrame (`lineId`, `templateId`) with the
    *         merged global template ids, plus the merged template table.
    */
  def parse(
      lines: DataFrame,
      depth: Int = 4,
      simThreshold: Double = 0.4,
      numPartitions: Int = 0,
  ): Result = {
    val spark = lines.sparkSession
    import spark.implicits._

    val input = {
      val base = lines.select($"lineId".cast("long"), $"message".cast("string"))
      if (numPartitions > 0) base.repartition(numPartitions) else base
    }.as[(Long, String)]

    // Phase 1: one Drain per partition; template rows carry lineId = -1.
    val mined: Dataset[(Long, Int, Int, Seq[String])] =
      input.mapPartitions { it =>
        val pid   = org.apache.spark.TaskContext.getPartitionId()
        val drain = new Drain(depth, simThreshold)
        // Iterator.++ takes its operand by name: the template rows are
        // built once every line row has gone through the partition's Drain
        it.map { case (lineId, msg) => (lineId, pid, drain.parse(msg), Seq.empty[String]) } ++
          drain.templates.iterator.map { case (lid, toks) => (-1L, pid, lid, toks: Seq[String]) }
      }.persist()

    // Phase 2: merge local templates on the driver.
    val localTemplates = mined.filter(_._1 == -1L).collect()
      .map { case (_, pid, lid, toks) => LocalTemplate(pid, lid, toks.toVector) }
    val merger = new Drain(depth, simThreshold)
    val mapping: Map[(Int, Int), Int] =
      localTemplates.sortBy(t => (t.partition, t.localId)).map { t =>
        (t.partition, t.localId) -> merger.parseTokens(t.tokens)
      }.toMap
    val bMapping = spark.sparkContext.broadcast(mapping)

    val assignments = mined.filter(_._1 >= 0L)
      .map { case (lineId, pid, lid, _) => (lineId, bMapping.value((pid, lid))) }
      .toDF("lineId", "templateId")
      .persist()
    assignments.count() // materialize so the phase-1 cache can be dropped
    mined.unpersist()

    Result(assignments, merger.templates)
  }
}
