// hyperDAG recognition tool (Lemmas B.1 / B.2).
//
//   hyperdag_check <graph.hgr>          decide whether the hypergraph is a
//                                       hyperDAG; print a generator
//                                       assignment or a violating subset
//   hyperdag_check --from-dag <dag.txt> convert a computational DAG into
//                                       its hyperDAG and print hMETIS to
//                                       stdout

#include <iostream>
#include <string>
#include <vector>

#include "hyperpart/dag/recognition.hpp"
#include "hyperpart/io/dag_io.hpp"
#include "hyperpart/io/hmetis_io.hpp"
#include "hyperpart/util/cli.hpp"
#include "hyperpart/util/timer.hpp"

int main(int argc, char** argv) {
  std::vector<std::string> files;
  bool from_dag = false;
  hp::cli::Parser cli("hyperdag_check", "[--from-dag] <file>");
  cli.positional("<file>", files, 1, 1).flag("--from-dag", from_dag);
  cli.parse(argc, argv);
  try {
    if (from_dag) {
      const hp::Dag dag = hp::read_dag_file(files[0]);
      const hp::HyperDag h = hp::to_hyperdag(dag);
      write_hmetis(std::cout, h.graph);
      std::cerr << "converted: " << h.graph.summary() << "\n";
      return 0;
    }

    const hp::Hypergraph g = hp::read_hmetis_file(files[0]);
    std::cerr << g.summary() << "\n";
    hp::Timer timer;
    const hp::RecognitionResult res = hp::recognize_hyperdag(g);
    std::cerr << "recognition in " << timer.millis() << " ms\n";
    if (res.is_hyperdag) {
      std::cout << "hyperDAG: yes\n";
      std::cout << "generator of each hyperedge (1-based nodes):\n";
      for (hp::EdgeId e = 0; e < g.num_edges(); ++e) {
        std::cout << (e + 1) << " <- " << (res.generator[e] + 1) << "\n";
      }
      return 0;
    }
    std::cout << "hyperDAG: no\n";
    std::cout << "violating induced subgraph (all degrees >= 2), "
              << res.violating_subset.size() << " nodes:";
    for (const hp::NodeId v : res.violating_subset) {
      std::cout << ' ' << (v + 1);
    }
    std::cout << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
