# Fails unless CMD (program;args...) exits with EXPECTED, its stderr
# contains MATCH when given, and, given RECORD, that single-run JSONL
# record's source_checksum is nonzero and equals its checksum.
# cmake -DCMD=... -DEXPECTED=N [-DMATCH=text] [-DRECORD=path] -P
execute_process(COMMAND ${CMD} RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL EXPECTED)
    message(FATAL_ERROR "${CMD} exited with '${rc}', expected ${EXPECTED}\n"
                        "${err}")
endif()
if(MATCH)
    string(FIND "${err}" "${MATCH}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "stderr does not name '${MATCH}':\n${err}")
    endif()
endif()
if(RECORD)
    file(READ ${RECORD} record)
    string(JSON source GET "${record}" source_checksum)
    string(JSON checksum GET "${record}" checksum)
    if(source EQUAL 0 OR NOT source EQUAL checksum)
        message(FATAL_ERROR "source_checksum ${source} vs checksum ${checksum}")
    endif()
endif()
