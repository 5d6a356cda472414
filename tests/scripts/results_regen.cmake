# The DSE and Table II result files regenerate byte-identically: runs every
# bench that drives dse::explore(), and the Table II validation (the paper
# table produced through functional Monte-Carlo), in a scratch directory
# and compares the CSVs they write with the checked-in results/.
#
#   cmake -DBENCH_DIR=<dir of the bench binaries> -DRESULTS=<repo>/results
#         -DWORKDIR=<scratch dir> -P results_regen.cmake

set(benches bench_table4_large_bank_dse bench_table6_vgg16_dse
            bench_fig8_area_latency bench_fig9_radar bench_ablation_hetero
            bench_table2_validation)
set(csvs table4_large_bank_dse.csv table6_vgg16_dse.csv
         fig8_area_latency.csv fig9a_radar_large_bank.csv
         fig9b_radar_vgg16.csv ablation_hetero.csv table2_validation.csv)

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
