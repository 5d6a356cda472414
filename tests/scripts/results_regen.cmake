# The deterministic result files regenerate byte-identically: runs every
# bench that drives dse::explore(), the Table II validation (the paper
# table produced through functional Monte-Carlo) and the other
# deterministic benches, the RC-interconnect transient and nonlinearity
# ablations included, in a scratch directory and compares the 20 CSVs
# they write with the checked-in results/.
#
# Not compared: the host-timed table3_speedup.csv. The other host-timed
# files, solver_batch.csv and cycle_sim.csv, are not tracked at all
# (.gitignore): CI regenerates them just before tools/perf_gate.py reads
# them, and a gate run without the benches fails on the missing file.
#
#   cmake -DBENCH_DIR=<dir of the bench binaries> -DRESULTS=<repo>/results
#         -DWORKDIR=<scratch dir> -P results_regen.cmake

set(benches bench_table4_large_bank_dse bench_table6_vgg16_dse
            bench_fig8_area_latency bench_fig9_radar bench_ablation_hetero
            bench_table2_validation bench_ablation_adc bench_ablation_device
            bench_ablation_precision bench_fig5_error_fit
            bench_fig6_area_validation bench_fig7_parallelism
            bench_memory_mode bench_table5_crossbar_tradeoff
            bench_table7_prime_isaac bench_ablation_interconnect
            bench_ablation_nonlinearity)
set(csvs table4_large_bank_dse.csv table6_vgg16_dse.csv
         fig8_area_latency.csv fig9a_radar_large_bank.csv
         fig9b_radar_vgg16.csv ablation_hetero.csv table2_validation.csv
         ablation_adc.csv ablation_device.csv ablation_variation.csv
         ablation_precision.csv
         fig5_error_fit.csv fig6_area_validation.csv fig7_parallelism.csv
         memory_mode_margin.csv memory_mode_ops.csv
         table5_crossbar_tradeoff.csv table7_prime_isaac.csv
         ablation_interconnect_rc.csv ablation_nonlinearity.csv)

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

foreach(bench ${benches})
  execute_process(COMMAND "${BENCH_DIR}/${bench}"
                  WORKING_DIRECTORY "${WORKDIR}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bench}: exit ${rc}\n${out}")
  endif()
endforeach()

set(differ "")
foreach(csv ${csvs})
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${WORKDIR}/results/${csv}" "${RESULTS}/${csv}"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    list(APPEND differ "${csv}")
  endif()
endforeach()
if(differ)
  message(FATAL_ERROR "regenerated CSVs differ from results/: ${differ}")
endif()
