package repro.parse

import org.apache.spark.sql.DataFrame

import repro.SparkSpec
import repro.logs.LogSynth
import repro.logs.LogSynth.SynthConfig

class DistributedDrainSpec extends SparkSpec {

  private def corpus(n: Long, sources: Seq[String] = Seq("network")) =
    LogSynth.generate(spark, SynthConfig(sources, n, anomalyRate = 0.0, payloadProb = 0.0))
      .toDF()

  /** Parse, run `check` on the result, then drop the assignments it cached. */
  private def parsed[A](df: DataFrame, numPartitions: Int)(check: DistributedDrain.Result => A): A = {
    val res = DistributedDrain.parse(df.select("lineId", "message"), numPartitions = numPartitions)
    try check(res) finally res.assignments.unpersist()
  }

  test("assigns every line exactly once") {
    val df = corpus(200)
    parsed(df, 4) { res =>
      assert(res.assignments.count() == df.count())
      assert(res.assignments.select("lineId").distinct().count() == df.count())
    }
  }

  test("merged templates cover all partition-local discoveries") {
    val df = corpus(200)
    parsed(df, 8) { res =>
      val ids = res.assignments.select("templateId").distinct().collect().map(_.getInt(0)).toSet
      assert(ids.subsetOf(res.templates.keySet))
    }
  }

  test("recovers the true template count on a clean source") {
    val df = corpus(400)
    parsed(df, 8) { res =>
      val nTrue = df.select("templateId").distinct().count()
      assert(res.templates.size == nTrue)
    }
  }

  test("grouping matches single-node Drain on a clean source") {
    val df = corpus(300)
    val msgs = df.select("lineId", "message").collect()
      .map(r => (r.getLong(0), r.getString(1))).sortBy(_._1)
    val single = new Drain(4, 0.4)
    val singleAssign = msgs.map { case (id, m) => (id, single.parse(m)) }.toMap
    parsed(df, 4) { res =>
      val distAssign = res.assignments.collect().map(r => (r.getLong(0), r.getInt(1))).toMap
      // same partition structure: identical ids not guaranteed, identical
      // grouping is
      val singleGroups = singleAssign.groupBy(_._2).values.map(_.keySet).toSet
      val distGroups   = distAssign.groupBy(_._2).values.map(_.keySet).toSet
      assert(singleGroups == distGroups)
    }
  }

  test("multi-source corpus parses to the union of template sets") {
    val df = corpus(400, Seq("network", "storage", "compute", "auth"))
    parsed(df, 8) { res =>
      val nTrue = df.select("templateId").distinct().count()
      assert(res.templates.size == nTrue)
    }
  }

  test("single partition degenerates to plain Drain") {
    val df = corpus(150)
    parsed(df, 1) { res =>
      val nTrue = df.select("templateId").distinct().count()
      assert(res.templates.size == nTrue)
    }
  }

  test("parse leaves one cached result, and unpersisting it leaves none") {
    // T8 and ParserHarness.runDistributed rely on this contract
    val df = corpus(100)
    def cached = spark.sparkContext.getPersistentRDDs.size
    val before = cached
    parsed(df, 4)(_ => assert(cached == before + 1))
    assert(cached == before)
  }

  test("templates mines parse's template table, id for id") {
    for (sources <- Seq(Seq("network"), Seq("network", "storage", "compute", "auth"));
         n       <- Seq(1, 4, 8)) {
      // one cached partitioning, so both entry points mine the same partitions
      val input = corpus(300, sources).select("lineId", "message").repartition(n).cache()
      try {
        assert(input.rdd.getNumPartitions == n)
        parsed(input, 0) { res =>
          assert(DistributedDrain.templates(input) == res.templates, s"$n partitions of $sources")
        }
      } finally input.unpersist()
    }
  }

  test("templates leaves nothing cached") {
    val df = corpus(100)
    def cached = spark.sparkContext.getPersistentRDDs.size
    val before = cached
    assert(DistributedDrain.templates(df.select("message")).nonEmpty)
    assert(cached == before)
  }
}
