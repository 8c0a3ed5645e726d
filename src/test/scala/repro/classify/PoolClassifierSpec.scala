package repro.classify

import org.scalatest.funsuite.AnyFunSuite

import repro.classify.PoolClassifier._

class PoolClassifierSpec extends AnyFunSuite {

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
    c.observe(MoveToPool(report("a", "sequential"), "p1"))
    c.observe(MoveToPool(report("a", "sequential"), "p2"))
    val first = c.classifyPool(report("a", "sequential"))
    assert((1 to 10).forall(_ => c.classifyPool(report("a", "sequential")) == first))
  }

  test("serializable for broadcast") {
    val c = new PoolClassifier()
    c.observe(MoveToPool(report("auth", "sequential"), "security"))
    val bytes = new java.io.ByteArrayOutputStream()
    val oos = new java.io.ObjectOutputStream(bytes)
    oos.writeObject(c); oos.close()
    val c2 = new java.io.ObjectInputStream(
      new java.io.ByteArrayInputStream(bytes.toByteArray)).readObject()
      .asInstanceOf[PoolClassifier]
    assert(c2.classifyPool(report("auth", "sequential")) == "security")
  }
}
