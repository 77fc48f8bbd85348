# Writes OUTPUT, a header defining P2PDT_BUILD_GIT_SHA as the short SHA of
# HEAD in the git work tree that holds SOURCE_DIR, or "unknown" outside one.
# The p2pdt_git_sha target runs it (cmake -P) on every build; the header is
# rewritten only when its text changes, so build_info.cc alone recompiles,
# and only after HEAD moves.
execute_process(
  COMMAND git rev-parse --short=12 HEAD
  WORKING_DIRECTORY ${SOURCE_DIR}
  OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE
  RESULT_VARIABLE status
  ERROR_QUIET)
if(NOT status EQUAL 0 OR NOT sha)
  set(sha "unknown")
endif()
set(text "#define P2PDT_BUILD_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS ${OUTPUT})
  file(READ ${OUTPUT} old)
endif()
if(NOT old STREQUAL text)
  file(WRITE ${OUTPUT} "${text}")
endif()
