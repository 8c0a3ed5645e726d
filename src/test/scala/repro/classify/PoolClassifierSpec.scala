package repro.classify

import scala.collection.mutable

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

import repro.classify.PoolClassifier._

class PoolClassifierSpec extends AnyFunSuite {
  import PoolClassifierSpec._

  private def report(source: String, kind: String, tpls: Seq[Int] = Seq(1, 2)) =
    ReportFeatures(source, kind, tpls)

  test("starts with only the default pool") {
    val c = new PoolClassifier()
    assert(c.knownPools == Set(DefaultPool))
  }

  test("untrained classifier answers the defaults") {
    val c = new PoolClassifier()
    assert(c.classify(report("network", "sequential")) == (DefaultPool, DefaultCriticality))
  }

  test("createPool and deletePool manage the pool set") {
    val c = new PoolClassifier()
    c.createPool("security")
    assert(c.knownPools == Set(DefaultPool, "security"))
    c.deletePool("security")
    assert(c.knownPools == Set(DefaultPool))
  }

  test("the default pool cannot be deleted") {
    val c = new PoolClassifier()
    c.deletePool(DefaultPool)
    assert(c.knownPools.contains(DefaultPool))
  }

  test("a move action teaches pool assignment") {
    val c = new PoolClassifier()
    (1 to 5).foreach(_ => c.observe(MoveToPool(report("auth", "sequential"), "security")))
    (1 to 5).foreach(_ => c.observe(MoveToPool(report("network", "sequential"), "netops")))
    assert(c.classifyPool(report("auth", "sequential")) == "security")
    assert(c.classifyPool(report("network", "sequential")) == "netops")
  }

  test("kind features separate quantitative from sequential") {
    val c = new PoolClassifier()
    (1 to 8).foreach(_ => c.observe(MoveToPool(report("storage", "quantitative"), "capacity")))
    (1 to 8).foreach(_ => c.observe(MoveToPool(report("storage", "sequential"), "storage-ops")))
    assert(c.classifyPool(report("storage", "quantitative")) == "capacity")
    assert(c.classifyPool(report("storage", "sequential")) == "storage-ops")
  }

  test("template features matter when source and kind tie") {
    val c = new PoolClassifier()
    (1 to 8).foreach(_ => c.observe(MoveToPool(report("net", "sequential", Seq(14)), "errors")))
    (1 to 8).foreach(_ => c.observe(MoveToPool(report("net", "sequential", Seq(15)), "integrity")))
    assert(c.classifyPool(report("net", "sequential", Seq(14))) == "errors")
    assert(c.classifyPool(report("net", "sequential", Seq(15))) == "integrity")
  }

  test("criticality follows the per-pool majority of corrections") {
    val c = new PoolClassifier()
    c.observe(MoveToPool(report("auth", "sequential"), "security"))
    c.observe(SetCriticality(report("auth", "sequential"), "security", "high"))
    c.observe(SetCriticality(report("auth", "sequential"), "security", "high"))
    c.observe(SetCriticality(report("auth", "sequential"), "security", "low"))
    assert(c.classifyCriticality("security") == "high")
  }

  test("criticality defaults when a pool has no signal") {
    val c = new PoolClassifier()
    c.createPool("fresh")
    assert(c.classifyCriticality("fresh") == DefaultCriticality)
  }

  test("deletePool forgets its training") {
    val c = new PoolClassifier()
    (1 to 5).foreach(_ => c.observe(MoveToPool(report("auth", "sequential"), "security")))
    c.deletePool("security")
    assert(c.classifyPool(report("auth", "sequential")) != "security")

    // the deleted pool's features no longer widen the Laplace vocabulary:
    // the answer equals that of a classifier that never saw the pool
    val probe = report("storage", "quantitative", Seq(99))
    val kept  = MoveToPool(report("network", "sequential", Seq(1)), "x")
    val after = new PoolClassifier()
    after.observe(kept)
    (0 until 60).foreach(i => after.observe(MoveToPool(report("auth", "sequential", Seq(100 + i)), "y")))
    after.deletePool("y")
    val fresh = new PoolClassifier()
    fresh.observe(kept)
    assert(fresh.classifyPool(probe) == DefaultPool)
    assert(after.classifyPool(probe) == fresh.classifyPool(probe))
  }

  test("observe(MoveToPool) creates unknown pools on the fly") {
    val c = new PoolClassifier()
    c.observe(MoveToPool(report("x", "sequential"), "brand-new"))
    assert(c.knownPools.contains("brand-new"))
  }

  test("classification is deterministic under ties") {
    val c = new PoolClassifier()
    c.observe(MoveToPool(report("a", "sequential"), "p2"))
    c.observe(MoveToPool(report("a", "sequential"), "p1"))
    // equal pools: the first name wins, whatever the order they were trained in
    assert((1 to 10).forall(_ => c.classifyPool(report("a", "sequential")) == "p1"))
    // equal correction counts: the first level name wins
    c.observe(SetCriticality(report("a", "sequential"), "p1", "low"))
    c.observe(SetCriticality(report("a", "sequential"), "p1", "high"))
    assert(c.classify(report("a", "sequential")) == ("p1", "high"))
  }

  test("serializable for broadcast") {
    val c = new PoolClassifier()
    (1 to 3).foreach(_ => c.observe(MoveToPool(report("auth", "sequential", Seq(1)), "security")))
    (1 to 2).foreach(_ => c.observe(MoveToPool(report("net", "quantitative", Seq(2, 3)), "netops")))
    c.observe(MoveToPool(report("disk", "sequential", Seq(4)), "storage"))
    c.observe(MoveToPool(report("gone", "quantitative", Seq(5)), "retired"))
    c.observe(SetCriticality(report("auth", "sequential"), "security", "high"))
    c.observe(SetCriticality(report("net", "quantitative"), "netops", "low"))
    c.observe(SetCriticality(report("net", "quantitative"), "netops", "high"))
    c.observe(SetCriticality(report("x", "sequential"), "oncall", "low")) // never moved into
    c.createPool("fresh")                                                // created, untrained
    c.deletePool("retired")
    val c2 = roundTrip(c)
    assert(c2.knownPools == c.knownPools)
    assert(c.knownPools == Set(DefaultPool, "security", "netops", "storage", "oncall", "fresh"))
    assert(c2.classifyPool(report("auth", "sequential", Seq(1))) == "security")
    for (p <- Probes) assert(c2.classify(p) == c.classify(p), p)
    for (name <- PoolNames :+ "retired") assert(c2.classifyCriticality(name) == c.classifyCriticality(name), name)
  }

  test("classify, classifyCriticality and knownPools equal the five-collection reference after every action") {
    val seen = mutable.Set.empty[String]
    val prop = Prop.forAllNoShrink(Gen.choose(1, 40).flatMap(Gen.listOfN(_, actionGen))) { actions =>
      val c   = new PoolClassifier()
      val ref = new FiveCollections
      val moved = mutable.Set.empty[String]
      val diffs = actions.zipWithIndex.flatMap { case (a, i) =>
        a match {
          case Create(name) =>
            seen += "create"; c.createPool(name); ref.createPool(name)
          case Delete(name) =>
            seen += "delete"; c.deletePool(name); ref.deletePool(name)
            if (name != DefaultPool) moved -= name
          case Act(m @ MoveToPool(_, name)) =>
            moved += name; c.observe(m); ref.observe(m)
          case Act(s: SetCriticality) =>
            if (!moved(s.pool)) seen += "criticality before any move"
            c.observe(s); ref.observe(s)
        }
        if (a.pool == DefaultPool) seen += "default pool"
        val pools = Option.when(c.knownPools != ref.knownPools)(s"knownPools ${c.knownPools} != ${ref.knownPools}")
        val crits = (PoolNames :+ "unknown").find(n => c.classifyCriticality(n) != ref.classifyCriticality(n))
          .map(n => s"classifyCriticality($n)")
        val classes = Probes.find(p => c.classify(p) != ref.classify(p))
          .map(p => s"classify($p) ${c.classify(p)} != ${ref.classify(p)}")
        (pools ++ crits ++ classes).map(d => s"after action $i ($a): $d")
      }
      Prop(diffs.isEmpty) :| diffs.headOption.getOrElse("")
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(500)
                              .withInitialSeed(Seed(53L)), prop)
    assert(result.passed, result.status)
    assert(seen == Set("create", "delete", "criticality before any move", "default pool"))
  }
}

object PoolClassifierSpec {
  /** Few names and features, so pools tie and share features often. */
  val PoolNames = Seq(DefaultPool, "a", "b", "c")
  private val Sources = Seq("net", "auth")
  private val Kinds   = Seq("sequential", "quantitative")
  private val Levels  = Seq("high", "low", "moderate")

  val Probes: Seq[ReportFeatures] =
    for (s <- Sources; k <- Kinds; t <- Seq(Nil, Seq(0), Seq(1, 2), Seq(0, 3, 3), Seq(9)))
      yield ReportFeatures(s, k, t)

  sealed trait Step { def pool: String }
  final case class Create(pool: String) extends Step
  final case class Delete(pool: String) extends Step
  final case class Act(action: AdminAction) extends Step {
    def pool: String = action match {
      case MoveToPool(_, p)        => p
      case SetCriticality(_, p, _) => p
    }
  }

  private val reportGen: Gen[ReportFeatures] = for {
    s <- Gen.oneOf(Sources)
    k <- Gen.oneOf(Kinds)
    t <- Gen.choose(0, 3).flatMap(Gen.listOfN(_, Gen.choose(0, 4)))
  } yield ReportFeatures(s, k, t)

  val actionGen: Gen[Step] = Gen.oneOf(PoolNames).flatMap { pool =>
    Gen.frequency(
      1 -> Gen.const(Create(pool)),
      1 -> Gen.const(Delete(pool)),
      5 -> reportGen.map(r => Act(MoveToPool(r, pool))),
      3 -> (for (r <- reportGen; l <- Gen.oneOf(Levels)) yield Act(SetCriticality(r, pool, l))),
    )
  }

  /** Java serialization there and back, as a broadcast ships a classifier. */
  def roundTrip(c: PoolClassifier): PoolClassifier = {
    val bytes = new java.io.ByteArrayOutputStream()
    val oos   = new java.io.ObjectOutputStream(bytes)
    oos.writeObject(c); oos.close()
    new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bytes.toByteArray))
      .readObject().asInstanceOf[PoolClassifier]
  }
}

/** The classifier as it was before its one-map layout: the pool set, the
  * report and feature counts, the (pool, level) counts and the vocabulary
  * in five parallel collections. Pool ties go to the first of the sorted
  * names, criticality ties to the first level name.
  */
private class FiveCollections {
  private val Smoothing  = 1.0
  private val pools      = mutable.Set(DefaultPool)
  private val featCounts = mutable.Map.empty[String, mutable.Map[String, Double]]
  private val poolCounts = mutable.Map.empty[String, Double]
  private val critCounts = mutable.Map.empty[(String, String), Double]
  private val features   = mutable.Set.empty[String]

  def knownPools: Set[String] = pools.toSet

  def createPool(name: String): Unit = pools += name

  def deletePool(name: String): Unit = if (name != DefaultPool) {
    pools -= name
    featCounts.remove(name)
    poolCounts.remove(name)
    critCounts.filterInPlace { case ((p, _), _) => p != name }
    features.clear()
    featCounts.valuesIterator.foreach(features ++= _.keys)
  }

  def observe(action: AdminAction): Unit = action match {
    case MoveToPool(report, pool) =>
      pools += pool
      poolCounts.updateWith(pool)(c => Some(c.getOrElse(0.0) + 1.0))
      val fc = featCounts.getOrElseUpdate(pool, mutable.Map.empty)
      report.featureBag.foreach { f =>
        features += f
        fc.updateWith(f)(c => Some(c.getOrElse(0.0) + 1.0))
      }
    case SetCriticality(_, pool, crit) =>
      pools += pool
      critCounts.updateWith((pool, crit))(c => Some(c.getOrElse(0.0) + 1.0))
  }

  def classifyPool(report: ReportFeatures): String = {
    if (poolCounts.isEmpty) return DefaultPool
    val total = poolCounts.values.sum
    val nFeat = math.max(1, features.size)
    val bag   = report.featureBag
    pools.toSeq.sorted.maxBy { pool =>
      val prior = math.log((poolCounts.getOrElse(pool, 0.0) + Smoothing) /
                           (total + Smoothing * pools.size))
      val fc     = featCounts.getOrElse(pool, mutable.Map.empty)
      val fcSum  = fc.values.sum
      val lik = bag.map { f =>
        math.log((fc.getOrElse(f, 0.0) + Smoothing) / (fcSum + Smoothing * nFeat))
      }.sum
      prior + lik
    }
  }

  def classifyCriticality(pool: String): String = {
    val inPool = critCounts.collect { case ((p, c), n) if p == pool => (c, n) }
    if (inPool.isEmpty) DefaultCriticality
    else inPool.toSeq.sortBy { case (c, n) => (-n, c) }.head._1
  }

  def classify(report: ReportFeatures): (String, String) = {
    val pool = classifyPool(report)
    (pool, classifyCriticality(pool))
  }
}
