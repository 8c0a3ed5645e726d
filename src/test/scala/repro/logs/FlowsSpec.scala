package repro.logs

import org.scalatest.funsuite.AnyFunSuite

import repro.logs.LogModel._

class FlowsSpec extends AnyFunSuite {

  test("template ids are globally unique") {
    val ids = (Flows.cloudTemplates ++ Flows.hdfsTemplates).map(_.id)
    assert(ids.distinct.size == ids.size)
  }

  test("every flow references only templates of its own source") {
    (Flows.cloudFlows :+ Flows.hdfsFlow).foreach { flow =>
      val stepIds = flow.steps.map {
        case Fixed(t)        => t
        case Repeat(t, _, _) => t
      } ++ flow.errorTemplateIds
      stepIds.foreach { id =>
        assert(Flows.allTemplates(id).source == flow.source,
               s"template $id not of source ${flow.source}")
      }
    }
  }

  test("error templates are never part of the normal flow") {
    (Flows.cloudFlows :+ Flows.hdfsFlow).foreach { flow =>
      val normal = flow.steps.map {
        case Fixed(t)        => t
        case Repeat(t, _, _) => t
      }.toSet
      assert(flow.errorTemplateIds.forall(e => !normal.contains(e)))
    }
  }

  test("templateString puts <*> at variable slots") {
    val td = Flows.allTemplates(11)
    assert(td.templateString == "Sending <*> bytes src: <*> dest: <*>")
    assert(td.templateString.split(" ").count(_ == "<*>") == 3)
  }

  test("repeat bounds are sane") {
    (Flows.cloudFlows :+ Flows.hdfsFlow).foreach { flow =>
      flow.steps.foreach {
        case Repeat(_, min, max) => assert(min >= 1 && max >= min)
        case _                   => ()
      }
    }
  }

  test("flowFor resolves every source and rejects unknowns") {
    Seq("network", "storage", "compute", "auth", "hdfs").foreach { s =>
      assert(Flows.flowFor(s).source == s)
    }
    intercept[IllegalArgumentException](Flows.flowFor("nope"))
  }

  test("payload-bearing templates exist (for T5)") {
    assert(Flows.cloudTemplates.exists(_.payloadKeys.nonEmpty))
    assert(Flows.hdfsTemplates.forall(_.payloadKeys.isEmpty))
  }

  test("static tokens contain no spaces") {
    Flows.allTemplates.values.foreach { td =>
      td.toks.foreach {
        case Static(s) => assert(!s.contains(" "))
        case _         => ()
      }
    }
  }
}
