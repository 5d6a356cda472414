# `mnsim_cli sweep` flag parsing: every bad --retries / --deadline /
# --shard / --error value is a usage error (exit 2) that prints no sweep
# output, and in-range values run the sweep.
#
#   cmake -DCLI=<path to mnsim_cli> -DWORKDIR=<scratch dir> -P sweep_cli_flags.cmake

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

foreach(bad "--retries;0" "--retries;abc" "--deadline;-5" "--shard;1/2junk"
            "--error;25x")
  execute_process(COMMAND "${CLI}" sweep ${bad}
                  WORKING_DIRECTORY "${WORKDIR}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(REPLACE ";" " " flag "${bad}")
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "sweep ${flag}: exit ${rc}, want 2\n${out}${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "sweep ${flag}: printed sweep output\n${out}")
  endif()
  if(NOT err MATCHES "usage:")
    message(FATAL_ERROR "sweep ${flag}: no usage message\n${err}")
  endif()
endforeach()

execute_process(COMMAND "${CLI}" sweep --retries 3 --deadline 1000
                WORKING_DIRECTORY "${WORKDIR}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sweep --retries 3 --deadline 1000: exit ${rc}\n"
                      "${out}${err}")
endif()
if(NOT out MATCHES "sweeping [0-9]+ designs")
  message(FATAL_ERROR "sweep --retries 3 --deadline 1000: no sweep\n${out}")
endif()
