package repro.parse

import org.apache.spark.TaskContext
import org.apache.spark.sql.DataFrame

/** Distributed tree-based log parsing — the paper's planned contribution
  * (§IV: "Drain … is not distributable. We plan to provide a distributed
  * version of research tree-based log parsing method").
  *
  * Two-phase dataflow:
  *
  *   1. partition-local mining: each partition runs an independent Drain
  *      over its lines (`mapPartitions`) and, at partition end, emits the
  *      partition's mined templates;
  *   2. driver-side merge: every local template, sorted by (partition,
  *      local id), is replayed through a merge Drain (wildcards descend the
  *      `<*>` path), yielding a global id per (partition, local id).
  *
  * Two entry points share both phases. [[parse]] also emits each line's
  * local group id in phase 1, caches those rows, and remaps them to global
  * ids in a second narrow pass over a broadcast of the mapping.
  * [[templates]] emits only the local templates and returns the merged
  * table: no line rows, nothing cached, one job.
  *
  * The result is deterministic given the input partitioning and scales
  * with the number of partitions, while producing the same *kind* of
  * templates single-node Drain mines — T4 measures the accuracy gap and
  * T8 the speed-up. On the same partitions, both entry points mine the
  * same template table, id for id.
  */
object DistributedDrain {

  /** Parse result: per-line assignment plus the merged template table. */
  final case class Result(assignments: DataFrame, templates: Map[Int, Vector[String]])

  /** Phase-1 row: a line's `(lineId, partition, localId, [])`, or a local
    * template's `(-1, partition, localId, tokens)`.
    */
  private type Mined = (Long, Int, Int, Seq[String])

  /** Parse `lines` (columns `lineId: Long`, `message: String`).
    *
    * The caller owns the returned assignments: they are cached, and
    * nothing else is left cached.
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

    val mined = input.mapPartitions(it =>
      mineLocally(it, depth, simThreshold)(_._2, l => Some(l._1))).persist()
    val (mapping, templates) = merge(mined.filter(_._1 == -1L).collect(), depth, simThreshold)
    val bMapping = spark.sparkContext.broadcast(mapping)

    val assignments = mined.filter(_._1 >= 0L)
      .map { case (lineId, pid, lid, _) => (lineId, bMapping.value((pid, lid))) }
      .toDF("lineId", "templateId")
      .persist()
    assignments.count() // materialize so the phase-1 cache can be dropped
    mined.unpersist()

    Result(assignments, templates)
  }

  /** Mine the merged template table of `lines` (column `message: String`;
    * other columns are ignored). The table equals `parse(lines).templates`
    * on the same partitions; no per-line output is built or cached.
    */
  def templates(
      lines: DataFrame,
      depth: Int = 4,
      simThreshold: Double = 0.4,
  ): Map[Int, Vector[String]] = {
    val spark = lines.sparkSession
    import spark.implicits._

    val local = lines.select($"message".cast("string")).as[String]
      .mapPartitions(it => mineLocally(it, depth, simThreshold)(identity, _ => None))
      .collect()
    merge(local, depth, simThreshold)._2
  }

  /** Phase 1 on one partition: one fresh Drain parses every line, in
    * order. A line for which `lineId` is defined yields its row; once the
    * last line is through, each local template follows as a row of its own
    * (`Iterator.++` takes its operand by name).
    */
  private def mineLocally[L](lines: Iterator[L], depth: Int, simThreshold: Double)(
      message: L => String, lineId: L => Option[Long]): Iterator[Mined] = {
    val pid   = TaskContext.getPartitionId()
    val drain = new Drain(depth, simThreshold)
    lines.flatMap { l =>
      val lid = drain.parse(message(l))
      lineId(l).map(id => (id, pid, lid, Seq.empty[String]))
    } ++ drain.templates.iterator.map { case (lid, toks) => (-1L, pid, lid, toks: Seq[String]) }
  }

  /** Phase 2 on the driver: replay the local template rows, sorted by
    * (partition, local id), through one merge Drain.
    *
    * @return the global id of each (partition, local id), and the merged
    *         template table
    */
  private def merge(local: Array[Mined], depth: Int,
                    simThreshold: Double): (Map[(Int, Int), Int], Map[Int, Vector[String]]) = {
    val merger = new Drain(depth, simThreshold)
    val mapping = local.sortBy(t => (t._2, t._3)).map { case (_, pid, lid, toks) =>
      (pid, lid) -> merger.parseTokens(toks.toVector)
    }.toMap
    (mapping, merger.templates)
  }
}
