# A manifest's git_revision names the source tree the binary was built
# from, wherever the binary is launched: a one-experiment `cograd bench`
# run from a directory outside the source tree must report what
# `git -C <source> describe --always --dirty` prints, or "unknown" when
# git or a checkout is absent.
#
# Invoked by ctest as:
#   cmake -DCOGRAD=<path-to-cograd> -DSOURCE=<source tree> -P bench_revision.cmake
if(DEFINED ENV{TMPDIR} AND IS_DIRECTORY "$ENV{TMPDIR}")
  set(outside "$ENV{TMPDIR}")
else()
  set(outside "/tmp")
endif()
string(RANDOM LENGTH 12 tag)
set(outside "${outside}/cograd_bench_revision_${tag}")
get_filename_component(source "${SOURCE}" REALPATH)
file(MAKE_DIRECTORY "${outside}")
get_filename_component(outside "${outside}" REALPATH)
string(FIND "${outside}/" "${source}/" inside)
if(inside EQUAL 0)
  file(REMOVE_RECURSE "${outside}")
  message(FATAL_ERROR "${outside} lies inside the source tree ${source}")
endif()

execute_process(
  COMMAND ${COGRAD} bench --only smoke_e1_cogcast --out revision.json
  WORKING_DIRECTORY "${outside}"
  RESULT_VARIABLE result
  OUTPUT_QUIET)
if(EXISTS "${outside}/revision.json")
  file(READ "${outside}/revision.json" manifest)
endif()
file(REMOVE_RECURSE "${outside}")
if(NOT result EQUAL 0)
  message(FATAL_ERROR "cograd bench --only smoke_e1_cogcast failed (${result})")
endif()
if(NOT manifest MATCHES "\"git_revision\": \"([^\"]*)\"")
  message(FATAL_ERROR "the manifest carries no git_revision")
endif()
set(reported "${CMAKE_MATCH_1}")

set(expected "unknown")
find_program(GIT git)
if(GIT)
  execute_process(
    COMMAND ${GIT} -C "${SOURCE}" describe --always --dirty
    RESULT_VARIABLE git_result
    OUTPUT_VARIABLE described
    OUTPUT_STRIP_TRAILING_WHITESPACE
    ERROR_QUIET)
  if(git_result EQUAL 0 AND NOT described STREQUAL "")
    set(expected "${described}")
  endif()
endif()
if(NOT reported STREQUAL expected)
  message(FATAL_ERROR "git_revision is \"${reported}\" launched from "
                      "outside the source tree, expected \"${expected}\"")
endif()
